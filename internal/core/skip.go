package core

import (
	"math"
	"sync/atomic"

	"grappolo/internal/par"
)

// skipState is what uncolored sweeps keep to skip a vertex whose last
// decision, a stay, provably repeats (see sweepUncolored). The first
// uncolored sweep of a phase sizes it and decides every vertex; colored and
// async phases never touch it.
//
// If neither vertex i nor any vertex in its row has moved since i last
// decided, i's accumulator holds the same e_{i→C} in the same first-touch
// order, so only the aggregates can have changed its gains: under Eq. (4) by
// at most γ·k_i·D/m² per sweep, where D is the largest change of any a_C,
// and under CPM by at most 2·γ·s_i·D/m, with D taken over the node-size
// sums. budget adds up these bounds per unit of w_i (k_i, or s_i under CPM).
// bestModPlain and bestCPMPlain move i only for a gain > 0, so a stay whose
// largest candidate gain was top repeats while
// w_i·(budget − budget then) < −top − tol_i, where tol_i covers the rounding
// of the two evaluations of a gain; expire[i] is the budget at which that
// stops holding.
//
// Movers stamp their rows: the apply stage that opens every sweep after the
// first (see sweepUncolored) bumps epoch and sets stamp[v] = epoch for each
// vertex v the last sweep moved and for every vertex in v's row. Rows are
// symmetric, so stamp[i] == epoch exactly when i or a vertex in its row
// moved in the last sweep. epoch is never reset, so the stamps earlier
// sweeps, phases and runs left need no clear pass: only after the counter
// wraps at 2^32 applies can a stale stamp equal it, which costs a decision,
// never a wrong skip.
type skipState struct {
	live    bool      // a sweep of this phase has decided every vertex; the next applies its moves
	budget  float64   // the drift bounds summed over the phase's sweeps
	expire  []float64 // budget at which vertex i's last stay stops being certified
	stamp   []uint32  // the last epoch in which i or a vertex in its row moved
	epoch   uint32    // the current sweep's apply
	degSeen []float64 // a_C as the last sweep read it (modularity)
	nsSeen  []int64   // commNS as the last sweep read it (CPM)
	rate    float64   // budget increment per unit of D
	tol     float64   // tol_i = tol·(k_i + tolNS·s_i) + tolFloor
	tolNS   float64   // γ·Σ nodeSize under CPM, 0 under modularity
}

const (
	// gainTol scales tol_i. A computed gain is within a few roundings of its
	// largest term, which is at most k_i·(1+γ)/m under Eq. (4) and
	// (k_i + γ·s_i·Σ nodeSize)/m under CPM: about 1e-15 of that bound, so
	// 1e-12 of it covers two evaluations with room to spare.
	gainTol = 1e-12
	// tolFloor covers a gain term that underflows. With m and the
	// resolution inside skipRange, such a term is off by far less.
	tolFloor = 0x1p-400
	// skipRange bounds m, γ under Eq. (4) and γ·Σ nodeSize under CPM: within
	// it no gain term overflows, and outside it no stay is certified.
	skipRange = 0x1p200
)

// startSkip readies the skip state in the phase's first uncolored sweep,
// which decides every vertex: it sizes the arrays and records the
// aggregates the sweep reads.
func (st *phaseState) startSkip() {
	sk := &st.skip
	n := st.g.N()
	sk.expire = par.Resize(sk.expire, n)
	sk.stamp = par.Resize(sk.stamp, n)
	m, scale := st.m, st.gamma
	if st.commNS != nil {
		sk.nsSeen = par.Resize(sk.nsSeen, n)
		copy(sk.nsSeen, st.commNS)
		var total int64
		for _, s := range st.nodeSize {
			total += s
		}
		scale = st.cpmGamma * float64(total)
		sk.rate = 2 * st.cpmGamma / m
		sk.tol, sk.tolNS = gainTol/m, scale
	} else {
		sk.degSeen = par.Resize(sk.degSeen, n)
		copy(sk.degSeen, st.commDeg)
		sk.rate = st.gamma / (m * m)
		sk.tol, sk.tolNS = gainTol*(1+st.gamma)/m, 0
	}
	sk.rate *= 1 + 1e-9 // covers the rounding of rate and of D
	if !(m >= 1/skipRange && m <= skipRange && scale <= skipRange) {
		sk.budget = math.Inf(1)
	}
}

// trackDrift adds the sweep's drift bound to the budget. D is the largest
// change of a_C (under CPM, of the node-size sums) since the last sweep read
// them. It is measured against the skip state's own snapshot, which the same
// pass refreshes, so it is the drift of what the sweeps read, whatever else
// rewrites the aggregates between two sweeps.
func (st *phaseState) trackDrift(workers int) {
	sk := &st.skip
	if !sk.live {
		st.startSkip()
		return
	}
	n := st.g.N()
	var d float64
	if st.commNS != nil {
		d = float64(par.MaxInt64Ctx(st, n, workers, nsDrift))
	} else {
		d = par.MaxFloat64Ctx(st, n, workers, degDrift)
	}
	// Rounding the sum up keeps each increment of budget at least rate·D.
	sk.budget = (sk.budget + sk.rate*d) * (1 + 0x1p-50)
}

// degDrift is how far a_C moved since the last sweep read it; it records the
// value this sweep reads.
func degDrift(st *phaseState, c int) float64 {
	a := st.commDeg[c]
	d := math.Abs(a - st.skip.degSeen[c])
	st.skip.degSeen[c] = a
	return d
}

// nsDrift is degDrift for the CPM node-size sums.
func nsDrift(st *phaseState, c int) int64 {
	s := st.commNS[c]
	d := s - st.skip.nsSeen[c]
	st.skip.nsSeen[c] = s
	return max(d, -d)
}

// certified reports whether vertex i's last decision, a stay, repeats in
// this sweep: the budget has not reached expire[i], and no mover of the last
// sweep stamped i (nor, since the same test held in every sweep that
// skipped i, of any sweep since i decided).
//
//grappolo:hotpath
func (st *phaseState) certified(i int) bool {
	sk := &st.skip
	return sk.budget < sk.expire[i] && sk.stamp[i] != sk.epoch
}

// stampRow stamps mover i and every vertex in its row with the current
// epoch. Movers in other apply chunks stamp the same vertices, so a stamp is
// read and written atomically, and written only when it differs; the
// barrier after the apply stage orders these writes before the decide
// pass's plain reads.
//
//grappolo:hotpath
func (st *phaseState) stampRow(i int) {
	stamp, epoch := st.skip.stamp, st.skip.epoch
	if atomic.LoadUint32(&stamp[i]) != epoch {
		atomic.StoreUint32(&stamp[i], epoch)
	}
	nbr, _ := st.g.Neighbors(i)
	for _, j := range nbr {
		if atomic.LoadUint32(&stamp[j]) != epoch {
			atomic.StoreUint32(&stamp[j], epoch)
		}
	}
}

// expiry is expire[i] for a stay whose largest candidate gain was top: −∞
// when a gain came within tol_i of 0, +∞ when i had no candidate. The
// result is rounded down, so a skip never outlives the certificate.
//
//grappolo:hotpath
func (st *phaseState) expiry(i int, top float64) float64 {
	sk := &st.skip
	w := st.g.Degree(i)
	tol := sk.tol * w
	if st.commNS != nil {
		s := float64(st.nodeSize[i])
		tol = sk.tol * (w + sk.tolNS*s)
		w = s
	}
	slack := -top - (tol + tolFloor)
	if !(slack > 0) {
		return math.Inf(-1)
	}
	return (sk.budget + slack/w) * (1 - 0x1p-50)
}
