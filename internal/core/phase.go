package core

import (
	"context"
	"math"

	"grappolo/internal/graph"
	"grappolo/internal/par"
)

// phaseState carries the per-phase working arrays of Algorithm 1. Under the
// Engine one phaseState instance is recycled across phases and runs: reset
// re-slices every array to the phase's vertex count, growing backing storage
// only past the high-water mark, so a warmed Engine runs phases without
// allocating. Loop bodies receive the state as an explicit pointer context
// (par.ForChunkWorkerCtx et al.) instead of capturing it, which keeps the
// single-worker paths allocation-free.
type phaseState struct {
	g        *graph.Graph
	m        float64   // sum of edge weights (paper's m)
	m2       float64   // total weight 2m, hoisted so reductions skip the per-element g.TotalWeight() load
	curr     []int32   // C_curr: community of each vertex
	prev     []int32   // C_prev: uncolored sweeps' snapshot; colored sweeps' staged decisions
	commDeg  []float64 // a_C, atomically maintained during colored sweeps
	size     []int64   // |C|, for the singlet minimum-label rule
	gamma    float64
	minLbl   bool // generalized minimum-label tie-break enabled
	obj      Objective
	cpmGamma float64
	nodeSize []int64 // original-vertex count per (meta-)vertex (CPM only)
	commNS   []int64 // Σ nodeSize per community (CPM only; nil ⇒ modularity)
	nsBuf    []int64 // pooled backing for commNS (which must stay nil-able)
	// scratch holds one neighbor-community accumulator per worker, grown in
	// place and reused across every sweep, iteration, phase and run, so the
	// decide loop is allocation-free in steady state (§5.5: the per-vertex
	// map was the dominant clustering cost).
	scratch []*par.SparseAccum
	// colorPrefix caches, per color set, the arc prefix sum that drives
	// arc-balanced chunking in colored sweeps. Sets and OutDegree are
	// immutable for the whole phase, so it is built once on the first
	// colored sweep and reused by every later iteration. prefixBuf is the
	// pooled backing array for all sets.
	colorPrefix [][]int64
	prefixBuf   []int64
	prefixReady bool
	// sweepOwn bounds the vertices uncolored sweeps may MOVE: vertices in
	// [sweepOwn, n) are pinned — they contribute to community aggregates and
	// attract neighbors but never change community. reset sets it to n
	// (everything movable); Engine.SweepSeeded narrows it to freeze a ghost
	// suffix, which is how a shard clusters its own vertices against frozen
	// images of other shards' boundary vertices.
	sweepOwn int
	// within[i] is what the last sweep recorded for vertex i, so the
	// state it read or built scores without a second pass over the arcs.
	// After an uncolored sweep it is e_{i→C(i)} under prev, self-loop
	// included: i's term of the within-community sum of Eq. (3). A vertex
	// the sweep skipped, and a pinned vertex no mover stamped, keeps the
	// value recorded when it was last decided or scored, which is still
	// ownWeight(i, prev) bit for bit: neither i nor any vertex in its row
	// has moved since (see skipState). After a colored sweep it is the
	// change i's move made to e_{i→C(i)}, 0 when i stayed (see decideLive).
	within []float64
	// skip lets uncolored sweeps skip the vertices whose last decision, a
	// stay, provably repeats.
	skip skipState
	// in is Σ_i e_{i→C(i)} under curr, self-loops included: the
	// within-community sum of Eq. (3) (CPM's within2). score sets it, and a
	// colored phase keeps it current from its sweeps' moves (scoreMoves).
	in float64
	// transient loop-body inputs (set immediately before the loops that read
	// them; carried here so the captureless bodies reach them via the state
	// pointer).
	curSet     []int32   // sweepColored's current color set
	mergeSets  [][]int32 // sweepColored's current run of merged small sets
	prefixSets [][]int32 // colorPrefix build input sets
	// ctx/cancel carry the owning run's cooperative cancellation (nil when
	// the run is not cancellable — standalone states and plain Run/RunInto).
	// ctx is polled at the barriers between sweeps and color sets; the
	// latched cancel flag is what sweep bodies observe once per chunk, so
	// the per-vertex hot loops stay branch-free.
	ctx    context.Context
	cancel *par.Cancel
}

// stop polls the owning run's cancellation source (see stopRequested): a
// latched flag first — one atomic load, the form the per-chunk checks
// inside sweep bodies take after the first hit — then the context, which
// latches the flag for everyone else.
func (st *phaseState) stop() bool {
	return stopRequested(st.ctx, st.cancel)
}

// reset prepares st for one phase over g, recycling every buffer.
func (st *phaseState) reset(g *graph.Graph, opts Options, nodeSize []int64, workers int) {
	n := g.N()
	st.g = g
	st.m = g.M()
	st.m2 = g.TotalWeight()
	st.curr = par.Resize(st.curr, n)
	st.prev = par.Resize(st.prev, n)
	st.within = par.Resize(st.within, n)
	st.commDeg = par.Resize(st.commDeg, n)
	st.size = par.Resize(st.size, n)
	st.gamma = opts.Resolution
	st.minLbl = !opts.DisableMinLabel
	st.obj = opts.Objective
	st.cpmGamma = opts.CPMGamma
	st.nodeSize, st.commNS = nil, nil
	if st.obj == ObjCPM {
		st.nodeSize = nodeSize
		st.nsBuf = par.Resize(st.nsBuf, n)
		st.commNS = st.nsBuf
	}
	st.prefixReady = false
	st.sweepOwn = n
	st.skip.live = false
	st.skip.budget = 0
	// One accumulator per effective worker: community ids live in [0, n),
	// and a vertex can touch at most OutDegree+1 distinct communities (the
	// key list grows amortized past that on coarser graphs).
	nw := par.Workers(workers, n)
	for len(st.scratch) < nw {
		st.scratch = append(st.scratch, par.NewSparseAccum(n, g.MaxOutDegree()+1))
	}
	for w := 0; w < nw; w++ {
		st.scratch[w].Grow(n)
	}
	par.ForChunkCtx(st, n, workers, 0, func(st *phaseState, lo, hi int) {
		for i := lo; i < hi; i++ {
			st.curr[i] = int32(i)
			st.commDeg[i] = st.g.Degree(i)
			st.size[i] = 1
			if st.commNS != nil {
				st.commNS[i] = st.nodeSize[i]
			}
		}
	})
}

// newPhaseState allocates a standalone phase state (tests and benchmarks);
// the Engine recycles one via reset.
func newPhaseState(g *graph.Graph, opts Options, nodeSize []int64, workers int) *phaseState {
	st := &phaseState{}
	st.reset(g, opts, nodeSize, workers)
	return st
}

// refreshAggregates recomputes a_C and |C| (and the CPM node-size sums)
// from curr. It runs only where a phase opens and in score: before the
// first uncolored sweep of a phase, whose start is singletons or
// SweepSeeded's seed, for a colored phase's opening score, and for every
// score of an async phase. Every other sweep carries the aggregates by its
// moves (applyMove): colored and async sweeps as they move, uncolored sweeps
// in the apply stage that opens the next sweep. An uncolored sweep's skip
// bounds the drift of the aggregates it reads, bits included (see
// skipState), so it stays exact however they were summed.
func (st *phaseState) refreshAggregates(workers int) {
	n := st.g.N()
	if par.Workers(workers, n) == 1 {
		// Single effective worker (small graph or 1-P run): the atomic
		// scatter adds below would execute in exactly ascending-i order
		// anyway, so a plain serial pass computes bit-identical aggregates
		// without paying a CAS per vertex. On a 1-core host this takes a
		// measurable slice off every uncolored iteration (each refreshes
		// once).
		for i := 0; i < n; i++ {
			st.commDeg[i] = 0
			st.size[i] = 0
			if st.commNS != nil {
				st.commNS[i] = 0
			}
		}
		for i := 0; i < n; i++ {
			c := st.curr[i]
			st.commDeg[c] += st.g.Degree(i)
			st.size[c]++
			if st.commNS != nil {
				st.commNS[c] += st.nodeSize[i]
			}
		}
		return
	}
	par.ForChunkCtx(st, n, workers, 0, func(st *phaseState, lo, hi int) {
		for i := lo; i < hi; i++ {
			st.commDeg[i] = 0
			st.size[i] = 0
			if st.commNS != nil {
				st.commNS[i] = 0
			}
		}
	})
	par.ForChunkCtx(st, n, workers, 0, func(st *phaseState, lo, hi int) {
		for i := lo; i < hi; i++ {
			c := st.curr[i]
			par.AddFloat64(&st.commDeg[c], st.g.Degree(i))
			atomicAdd64(&st.size[c], 1)
			if st.commNS != nil {
				atomicAdd64(&st.commNS[c], st.nodeSize[i])
			}
		}
	})
}

// decideSnap computes vertex i's new community per Eqs. (4)–(5) with the
// minimum-label heuristics of §5.1, for uncolored snapshot sweeps: plain
// membership and aggregate reads (no other vertex mutates them during the
// sweep). decideLive and decideAsync are its MONOMORPHIC twins for colored
// and async sweeps — same arc visit order, same float expressions — so the
// per-arc hot loops carry no atomicity branches. It also returns
// ownWeight(i, membership) at almost no cost: after the gather, the
// accumulator's slot for C(i) holds e_{i→C(i)\{i}}, built by the same adds
// in the same arc order from the same 0 as ownWeight's sum, so for a row
// without a self-loop it IS that sum, bit for bit. A row with a self-loop
// is summed again in arc order. Its third result is the largest candidate
// gain it computed (−∞ when every neighbor is in C(i)), from which the sweep
// certifies a stay (see skipState).
//
//grappolo:hotpath
func (st *phaseState) decideSnap(i int, membership []int32, acc *par.SparseAccum) (int32, float64, float64) {
	ci, loop := st.accumSnap(i, membership, acc)
	own := acc.Val(ci)
	if loop {
		own = st.ownWeight(i, membership)
	}
	var next int32
	var top float64
	if st.obj == ObjCPM {
		next, top = st.bestCPMPlain(i, ci, acc)
	} else {
		next, top = st.bestModPlain(i, ci, acc)
	}
	return next, own, top
}

// decideLive is decideSnap's decision for colored sweeps, which read the
// live assignment curr with the moves of earlier color sets in it. Nothing
// moves while a set decides on several workers, and one worker moves its
// set's members itself (see sweepColored), so memberships and aggregates
// are read plainly.
//
// It also returns the move's change to e_{i→C(i)}: e_{i→D} − e_{i→C\{i}}
// when i moves from C to D, both already in the accumulator, and 0 when i
// stays. No neighbor of i shares its color set, so i's neighbors hold still
// while i's set moves, and the move changes Σ_v e_{v→C(v)} by exactly twice
// this delta: once in i's own term and once over its neighbors' terms.
//
//grappolo:hotpath
func (st *phaseState) decideLive(i int, membership []int32, acc *par.SparseAccum) (int32, float64) {
	ci, _ := st.accumSnap(i, membership, acc)
	var next int32
	if st.obj == ObjCPM {
		next, _ = st.bestCPMPlain(i, ci, acc)
	} else {
		next, _ = st.bestModPlain(i, ci, acc)
	}
	return next, acc.Val(next) - acc.Val(ci)
}

// decideAsync is decideSnap's decision for asynchronous live-state sweeps:
// adjacent vertices move concurrently, so memberships AND aggregates are
// read atomically.
//
//grappolo:hotpath
func (st *phaseState) decideAsync(i int, membership []int32, acc *par.SparseAccum) int32 {
	ci := st.accumAsync(i, membership, acc)
	if st.obj == ObjCPM {
		return st.bestCPMAtomic(i, ci, acc)
	}
	return st.bestModAtomic(i, ci, acc)
}

// accumSnap gathers e_{i→C} for every neighboring community of i with plain
// membership reads, and returns i's own community and whether i's row has a
// self-loop. The accumulator's first-touch key order equals the arc order,
// pinning ci at keys[0] (e_{i→C(i)\{i}} may be 0), which is what keeps the
// min-label tie-breaks bit-stable. This flat accumulation replaced the
// paper's per-vertex STL map (§5.5): one array write per arc, O(1) reset,
// zero allocations in steady state.
//
//grappolo:hotpath
func (st *phaseState) accumSnap(i int, membership []int32, acc *par.SparseAccum) (ci int32, loop bool) {
	ci = membership[i]
	nbr, wts := st.g.Neighbors(i)
	acc.Reset()
	acc.Ensure(ci)
	for t, j := range nbr {
		if int(j) == i {
			loop = true // self-loop stays with i under any move
			continue
		}
		acc.Add(membership[j], wts[t])
	}
	return ci, loop
}

// ownWeight returns e_{i→C(i)} under membership: the weight of i's arcs into
// its own community, self-loop included, summed in arc order. It is vertex
// i's term of the within-community sum of Eq. (3) (and of CPM's within2).
//
//grappolo:hotpath
func (st *phaseState) ownWeight(i int, membership []int32) float64 {
	ci := membership[i]
	nbr, wts := st.g.Neighbors(i)
	s := 0.0
	for t, j := range nbr {
		if membership[j] == ci {
			s += wts[t]
		}
	}
	return s
}

// accumAsync is accumSnap with atomic membership loads (async sweeps move
// adjacent vertices concurrently).
//
//grappolo:hotpath
func (st *phaseState) accumAsync(i int, membership []int32, acc *par.SparseAccum) int32 {
	ci := atomicLoad32(&membership[i])
	nbr, wts := st.g.Neighbors(i)
	acc.Reset()
	acc.Ensure(ci)
	for t, j := range nbr {
		if int(j) == i {
			continue // self-loop stays with i under any move
		}
		acc.Add(atomicLoad32(&membership[j]), wts[t])
	}
	return ci
}

// bestModPlain picks the max-gain move under Eq. (4) with plain aggregate
// reads, applying the generalized and singlet minimum-label heuristics of
// §5.1 (equal gains resolve to the smaller label; a singlet may enter
// another singlet community only downward, preventing the §4.2 swap cycles).
// It also returns the largest gain it computed, −∞ when i has no candidate.
//
//grappolo:hotpath
func (st *phaseState) bestModPlain(i int, ci int32, acc *par.SparseAccum) (int32, float64) {
	comms := acc.Keys() // first-touch order, comms[0] == ci
	eOwn := acc.Val(ci) // e_{i→C(i)\{i}}
	m := st.m
	ki := st.g.Degree(i)
	best := ci
	bestGain := 0.0
	top := math.Inf(-1)
	aOwn := st.commDeg[ci] - ki
	// Loop invariants of Eq. (4), hoisted without reassociating anything:
	// 2*ki*x parses as (2*ki)*x and st.gamma*y/(4*m*m) as (st.gamma*y)/(4*m*m),
	// so precomputing twoKi, ownTerm and denom4m2 yields bit-identical gains.
	twoKi := 2 * ki
	ownTerm := twoKi * aOwn
	denom4m2 := 4 * m * m
	gamma := st.gamma
	minLbl := st.minLbl
	commDeg := st.commDeg
	for _, ct := range comms[1:] {
		// Eq. (4).
		gain := (acc.Val(ct)-eOwn)/m + gamma*(ownTerm-twoKi*commDeg[ct])/denom4m2
		if gain > top {
			top = gain
		}
		switch {
		case gain > bestGain:
			bestGain, best = gain, ct
		case minLbl && gain == bestGain && gain > 0 && ct < best:
			best = ct
		}
	}
	if best == ci || bestGain <= 0 {
		return ci, top
	}
	if st.minLbl && best > ci && st.size[ci] == 1 && st.size[best] == 1 {
		return ci, top
	}
	return best, top
}

// bestModAtomic is bestModPlain with atomic aggregate reads (async sweeps
// mutate commDeg/size concurrently).
//
//grappolo:hotpath
func (st *phaseState) bestModAtomic(i int, ci int32, acc *par.SparseAccum) int32 {
	comms := acc.Keys()
	eOwn := acc.Val(ci)
	m := st.m
	ki := st.g.Degree(i)
	best := ci
	bestGain := 0.0
	aOwn := par.LoadFloat64(&st.commDeg[ci]) - ki
	// Same hoists as bestModPlain; see the note there on bit-identity.
	twoKi := 2 * ki
	ownTerm := twoKi * aOwn
	denom4m2 := 4 * m * m
	gamma := st.gamma
	minLbl := st.minLbl
	commDeg := st.commDeg
	for _, ct := range comms[1:] {
		// Eq. (4).
		gain := (acc.Val(ct)-eOwn)/m + gamma*(ownTerm-twoKi*par.LoadFloat64(&commDeg[ct]))/denom4m2
		switch {
		case gain > bestGain:
			bestGain, best = gain, ct
		case minLbl && gain == bestGain && gain > 0 && ct < best:
			best = ct
		}
	}
	if best == ci || bestGain <= 0 {
		return ci
	}
	if st.minLbl && best > ci &&
		atomicLoad64(&st.size[ci]) == 1 && atomicLoad64(&st.size[best]) == 1 {
		return ci
	}
	return best
}

// bestCPMPlain picks the max-gain move under the CPM objective (ΔH/m with
// the size-based penalty, future work iv) with plain aggregate reads. Like
// bestModPlain it also returns the largest gain it computed.
//
//grappolo:hotpath
func (st *phaseState) bestCPMPlain(i int, ci int32, acc *par.SparseAccum) (int32, float64) {
	comms := acc.Keys()
	eOwn := acc.Val(ci)
	m := st.m
	best := ci
	bestGain := 0.0
	top := math.Inf(-1)
	si := st.nodeSize[i]
	nsOwnLess := st.commNS[ci] - si
	// st.cpmGamma*float64(si) is loop-invariant and left-associated, so
	// hoisting it keeps the gains bit-identical.
	gSi := st.cpmGamma * float64(si)
	minLbl := st.minLbl
	commNS := st.commNS
	for _, ct := range comms[1:] {
		gain := (acc.Val(ct) - eOwn - gSi*float64(commNS[ct]-nsOwnLess)) / m
		if gain > top {
			top = gain
		}
		switch {
		case gain > bestGain:
			bestGain, best = gain, ct
		case minLbl && gain == bestGain && gain > 0 && ct < best:
			best = ct
		}
	}
	if best == ci || bestGain <= 0 {
		return ci, top
	}
	if st.minLbl && best > ci && st.size[ci] == 1 && st.size[best] == 1 {
		return ci, top
	}
	return best, top
}

// bestCPMAtomic is bestCPMPlain with atomic aggregate reads.
//
//grappolo:hotpath
func (st *phaseState) bestCPMAtomic(i int, ci int32, acc *par.SparseAccum) int32 {
	comms := acc.Keys()
	eOwn := acc.Val(ci)
	m := st.m
	best := ci
	bestGain := 0.0
	si := st.nodeSize[i]
	nsOwnLess := atomicLoad64(&st.commNS[ci]) - si
	// Same hoist as bestCPMPlain; see the note there on bit-identity.
	gSi := st.cpmGamma * float64(si)
	minLbl := st.minLbl
	commNS := st.commNS
	for _, ct := range comms[1:] {
		gain := (acc.Val(ct) - eOwn - gSi*float64(atomicLoad64(&commNS[ct])-nsOwnLess)) / m
		switch {
		case gain > bestGain:
			bestGain, best = gain, ct
		case minLbl && gain == bestGain && gain > 0 && ct < best:
			best = ct
		}
	}
	if best == ci || bestGain <= 0 {
		return ci
	}
	if st.minLbl && best > ci &&
		atomicLoad64(&st.size[ci]) == 1 && atomicLoad64(&st.size[best]) == 1 {
		return ci
	}
	return best
}

// applyMove atomically migrates vertex i's contributions from community old
// to next (degree, count, and CPM node size when tracked).
//
//grappolo:hotpath
func (st *phaseState) applyMove(i int, old, next int32) {
	ki := st.g.Degree(i)
	par.AddFloat64(&st.commDeg[old], -ki)
	par.AddFloat64(&st.commDeg[next], ki)
	atomicAdd64(&st.size[old], -1)
	atomicAdd64(&st.size[next], 1)
	if st.commNS != nil {
		s := st.nodeSize[i]
		atomicAdd64(&st.commNS[old], -s)
		atomicAdd64(&st.commNS[next], s)
	}
}

// sweepUncolored performs one full parallel iteration without coloring:
// every vertex's decision reads the previous iteration's snapshot, with no
// locks. Chunks are arc-balanced over the CSR offsets so a few hub vertices
// cannot serialize the sweep on skewed inputs, and each worker reuses its
// pooled accumulator.
//
// Decisions read the snapshot and its a_C. The phase's first sweep rebuilds
// a_C from its start (refreshAggregates); every later sweep opens with an
// apply stage that carries them by the last sweep's moves: each vertex with
// curr[i] != prev[i] migrates through applyMove, the atomic update colored
// sweeps use, and curr becomes the snapshot. With integer edge weights a_C is
// exact however it is summed, so the sweep's outcome is the same for any
// worker count and equals re-summing a_C from the snapshot. At one worker the
// moves apply in ascending id order, so runs repeat for any weights. With
// non-integer weights and several workers, the apply stage's atomic float
// adds land in scheduling order, and their rounding carries through the
// phase, so a_C's low bits — and through them Q's low bits and, where two
// gains nearly tie, a decision — can vary from run to run.
//
// The apply stage finds the last sweep's moves by comparing curr with prev,
// so between two uncolored sweeps of a phase only the sweep itself may
// change curr. A phase's last sweep is speculative (see Engine.iterate):
// undoing it leaves curr = prev, and its moves are never applied, so the
// aggregates describe curr when the phase returns.
//
// After the phase's first sweep, which decides every vertex, a sweep skips
// each vertex whose last decision was to stay when no mover has stamped it
// since, that is, nothing in its row has moved, and the a_C drift cannot
// have lifted a gain above 0 (see skipState). A skip leaves curr[i] =
// prev[i] and within[i] as recorded, which is what deciding i would
// produce, so memberships, scores and iteration counts are those of
// deciding every vertex. The drift is measured on the a_C the sweeps read,
// so this holds for any weights and worker count.
//
// The sweep also scores the snapshot it reads: within[i] = ownWeight(i,
// prev) for every vertex (see decideSnap), so reduceScore can score prev by
// an O(n) reduction instead of a second pass over the arcs.
func (st *phaseState) sweepUncolored(workers int) {
	n := st.g.N()
	sk := &st.skip
	if sk.live {
		sk.epoch++
		par.ForChunkCtx(st, n, workers, 0, applySwept)
	} else {
		copy(st.prev, st.curr)
		st.refreshAggregates(workers)
	}
	st.trackDrift(workers)
	// The arc prefix is truncated to the movable range: a pinned suffix
	// (sweepOwn < n, see Engine.SweepSeeded) is never decided, so the hot
	// loop carries no per-vertex pin check at all.
	par.ForChunkPrefixCtx(st, st.g.ArcOffsets()[:st.sweepOwn+1], workers, func(st *phaseState, w, lo, hi int) {
		if st.stop() { // per-chunk cancellation check; results are discarded
			return
		}
		acc := st.scratch[w]
		skip := st.skip.live
		for i := lo; i < hi; i++ {
			if skip && st.certified(i) {
				continue
			}
			st.decideRecord(i, acc)
		}
	})
	// Pinned vertices never move but still count in the snapshot's score,
	// which changes only when a vertex in their row moved.
	par.ForChunkCtx(st, n-st.sweepOwn, workers, 0, func(st *phaseState, lo, hi int) {
		skip := st.skip.live
		stamp, epoch := st.skip.stamp, st.skip.epoch
		for i := st.sweepOwn + lo; i < st.sweepOwn+hi; i++ {
			if !skip || stamp[i] == epoch {
				st.within[i] = st.ownWeight(i, st.prev)
			}
		}
	})
	sk.live = true
}

// applySwept is the apply stage of an uncolored sweep over vertices lo..hi-1:
// each vertex the last sweep moved migrates its contributions to the
// aggregates, takes its new community into prev, and stamps itself and its
// row for the skip test (see skipState).
//
//grappolo:hotpath
func applySwept(st *phaseState, lo, hi int) {
	for i := lo; i < hi; i++ {
		if old, next := st.prev[i], st.curr[i]; next != old {
			st.applyMove(i, old, next)
			st.prev[i] = next
			st.stampRow(i)
		}
	}
}

// decideRecord decides vertex i in an uncolored sweep and, for a stay,
// records expire[i], which the next sweep's skip test reads.
//
//grappolo:hotpath
func (st *phaseState) decideRecord(i int, acc *par.SparseAccum) {
	next, own, top := st.decideSnap(i, st.prev, acc)
	st.curr[i], st.within[i] = next, own
	if next == st.prev[i] {
		st.skip.expire[i] = st.expiry(i, top)
	}
}

// decideColoredSet and applyColoredSet are the two stages of one color set
// (see sweepColored) over members lo..hi-1 of curSet.
//
//grappolo:hotpath
func decideColoredSet(st *phaseState, w, lo, hi int) { st.decideSet(st.curSet, w, lo, hi) }

//grappolo:hotpath
func applyColoredSet(st *phaseState, lo, hi int) { st.applySet(st.curSet, lo, hi) }

// sweepMergedStage is one stage of a merged run of small color sets: stage
// 2k decides set k of mergeSets and stage 2k+1 applies it.
//
//grappolo:hotpath
func sweepMergedStage(st *phaseState, s, w, lo, hi int) {
	set := st.mergeSets[s/2]
	if s%2 == 0 {
		st.decideSet(set, w, lo, hi)
	} else {
		st.applySet(set, lo, hi)
	}
}

// mergedStageLen is the stage-size hook for the merged small-set pass.
func mergedStageLen(st *phaseState, s int) int { return len(st.mergeSets[s/2]) }

// decideSet records in prev the community each of members lo..hi-1 of one
// color set moves to, and in within the move's delta (see decideLive),
// deciding on worker w's accumulator against curr and the aggregates as they
// stood when the set began.
//
//grappolo:hotpath
func (st *phaseState) decideSet(set []int32, w, lo, hi int) {
	if st.stop() { // per-chunk cancellation check; results are discarded
		return
	}
	acc := st.scratch[w]
	for t := lo; t < hi; t++ {
		i := int(set[t])
		st.prev[i], st.within[i] = st.decideLive(i, st.curr, acc)
	}
}

// applySet moves members lo..hi-1 of one color set to the communities
// decideSet recorded, updating the aggregates atomically.
//
//grappolo:hotpath
func (st *phaseState) applySet(set []int32, lo, hi int) {
	// A decide chunk skipped on cancellation left stale decisions; the
	// latched flag skips every apply chunk after it.
	if st.stop() {
		return
	}
	for t := lo; t < hi; t++ {
		i := int(set[t])
		if old, next := st.curr[i], st.prev[i]; next != old {
			st.applyMove(i, old, next)
			st.curr[i] = next
		}
	}
}

// moveSet is the one-worker colored sweep of one color set: each member
// decides against the moves of the members before it and migrates at once,
// recording its move's delta in within.
//
//grappolo:hotpath
func (st *phaseState) moveSet(set []int32) {
	acc := st.scratch[0]
	for _, v := range set {
		i := int(v)
		old := st.curr[i]
		next, delta := st.decideLive(i, st.curr, acc)
		st.within[i] = delta
		if next != old {
			st.applyMove(i, old, next)
			st.curr[i] = next
		}
	}
}

// colorMergeCutoff is the vertex count below which consecutive color sets
// are folded into one staged pass (par.ForStagesCtx) instead of each paying
// a full parallel-for fork/join per stage. Greedy colorings produce a long
// tail of tiny sets — a few hundred vertices each — whose per-set barriers
// cost more than their work; 2048 vertices is comfortably past the point
// where the fork/join amortizes. Sets still execute serially in color order
// with barriers between their stages (the moves of set k must be visible to
// set k+1), they merely share one worker team.
const colorMergeCutoff = 2048

// sweepColored performs one full iteration over color sets: sets are
// processed in order, and earlier sets' moves are visible to later ones
// (§5.4 step 3). With one worker, the members of a set decide and move in
// order, each seeing the moves before it (moveSet): that order is already
// fixed, and the serving tiers' Workers(1) engines ran about a fifth slower
// on the two-stage form below. With more workers, each set
// runs in two stages with a barrier between them: its members decide in
// parallel against curr and the aggregates as they stood when the set
// began, recording their choices in prev, and then apply them. No two
// members of a set are adjacent, so a member's move cannot change what
// another member reads of curr; deciding before any member moves keeps the
// aggregates still as well. A set's moves therefore do not depend on how
// its members are scheduled, and with integer edge weights the applied
// aggregates are exact: a colored sweep's outcome is the same on every run
// for a given coloring and worker count. With non-integer weights and
// several workers, the atomic float adds of the apply stage land in
// scheduling order, as in an uncolored sweep's apply stage, and since no
// refresh follows a colored sweep, their rounding carries through the phase.
//
// Within a set, decide chunks are balanced by member arc counts (prefix
// sum over OutDegree into the pooled colorPrefix buffers). Runs of sets
// smaller than colorMergeCutoff share one worker team via par.ForStagesCtx
// (see the constant's comment).
//
// The sweep starts from the aggregates in place, which must be curr's: the
// phase's opening score leaves them so, and every colored sweep's moves keep
// them so. Every vertex is in exactly one color set, so the sweep records
// every vertex's move delta in within, from which scoreMoves scores the
// state the sweep leaves.
func (st *phaseState) sweepColored(sets [][]int32, workers int) {
	if par.Workers(workers, st.g.N()) == 1 {
		for _, set := range sets {
			if st.stop() { // see the color-set barrier below
				break
			}
			st.moveSet(set)
		}
		return
	}
	if !st.prefixReady {
		total := 0
		for _, set := range sets {
			total += len(set) + 1
		}
		buf := par.Resize(st.prefixBuf, total) // one backing array for all sets
		st.prefixBuf = buf
		prefixes := par.Resize(st.colorPrefix, len(sets))
		st.colorPrefix = prefixes
		off := 0
		for si, set := range sets {
			prefixes[si] = buf[off : off+len(set)+1]
			off += len(set) + 1
		}
		// Each set's degree prefix is independent, so the O(n) fill runs
		// one set per chunk item; the slicing above stays serial (it is
		// O(sets) pointer arithmetic).
		st.prefixSets = sets
		par.ForChunkCtx(st, len(sets), workers, 1, func(st *phaseState, lo, hi int) {
			for si := lo; si < hi; si++ {
				set := st.prefixSets[si]
				prefix := st.colorPrefix[si]
				prefix[0] = 0
				for t, v := range set {
					prefix[t+1] = prefix[t] + int64(st.g.OutDegree(int(v)))
				}
			}
		})
		st.prefixSets = nil
		st.prefixReady = true
	}
	for si := 0; si < len(sets); {
		// Color-set boundaries are the natural barriers of a colored sweep;
		// a canceled run abandons the remaining sets here (the owning
		// runPhase observes the same flag and unwinds).
		if st.stop() {
			break
		}
		// Extend a run of consecutive small sets; a run of length ≥ 2 is
		// worth merging into one staged pass.
		sj := si
		for sj < len(sets) && len(sets[sj]) < colorMergeCutoff {
			sj++
		}
		if sj-si >= 2 {
			st.mergeSets = sets[si:sj]
			par.ForStagesCtx(st, 2*(sj-si), mergedStageLen, workers, sweepMergedStage)
			st.mergeSets = nil
			si = sj
			continue
		}
		set := sets[si]
		st.curSet = set
		par.ForChunkPrefixCtx(st, st.colorPrefix[si], workers, decideColoredSet)
		par.ForChunkCtx(st, len(set), workers, 0, applyColoredSet)
		si++
	}
	st.curSet = nil
}

// sweepAsync performs one full iteration of asynchronous live-state local
// moves (the PLM emulation, §7): every vertex decides from whatever its
// neighbors' CURRENT assignments are, with membership and aggregates both
// accessed atomically because adjacent vertices move concurrently. Like
// sweepColored, it starts from curr's aggregates in place.
func (st *phaseState) sweepAsync(workers int) {
	par.ForChunkPrefixCtx(st, st.g.ArcOffsets(), workers, func(st *phaseState, w, lo, hi int) {
		if st.stop() { // per-chunk cancellation check; results are discarded
			return
		}
		acc := st.scratch[w]
		for i := lo; i < hi; i++ {
			old := atomicLoad32(&st.curr[i])
			next := st.decideAsync(i, st.curr, acc)
			if next != old {
				st.applyMove(i, old, next)
				atomicStore32(&st.curr[i], next)
			}
		}
	})
}

// score computes the active objective for curr — Eq. (3) modularity, or
// the normalized CPM score H/m under ObjCPM — from a full pass over every
// arc, and leaves curr's a_C, |C| and CPM node-size sums in place, where the
// next colored or async sweep reads them, and curr's within sum in in.
func (st *phaseState) score(workers int) float64 {
	st.refreshAggregates(workers)
	st.in = par.SumFloat64Ctx(st, st.g.N(), workers, currWithin)
	return st.reduceScore(st.in, workers)
}

// scoreMoves scores the state a colored sweep left without reading an arc:
// the sweep's moves changed the within sum by twice their recorded deltas
// (see decideLive), and applyMove kept a_C, |C| and the CPM node-size sums
// current. With integer edge weights every sum is exact, so the score has
// the bits score would compute.
func (st *phaseState) scoreMoves(workers int) float64 {
	st.in += 2 * st.sweptTotal(workers)
	return st.reduceScore(st.in, workers)
}

// reduceScore computes the active objective from the aggregates in place and
// in, the within-community sum Σ_i e_{i→C(i)} of the assignment they
// describe. CPM is H/m = (w_in − γ·Σ_C binom(ns_C,2)) / m, with w_in
// counted by the coarsening-invariant within2/2 convention (within2 = in).
func (st *phaseState) reduceScore(in float64, workers int) float64 {
	n := st.g.N()
	if st.obj == ObjCPM {
		if n == 0 || st.m == 0 {
			return 0
		}
		penalty := par.SumFloat64Ctx(st, n, workers, func(st *phaseState, c int) float64 {
			s := float64(st.commNS[c])
			return s * (s - 1) / 2
		})
		return (in/2 - st.cpmGamma*penalty) / st.m
	}
	if n == 0 || st.m2 == 0 {
		return 0
	}
	null := par.SumFloat64Ctx(st, n, workers, func(st *phaseState, c int) float64 {
		f := st.commDeg[c] / st.m2
		return f * f
	})
	return in/st.m2 - st.gamma*null
}

// sweptTotal sums what the last sweep recorded in within. After an
// uncolored sweep each entry is ownWeight(i, prev) bit for bit, so the sum
// is the one score would compute for prev, and reduceScore gives prev the
// score's bits whenever a_C has them (see sweepUncolored).
func (st *phaseState) sweptTotal(workers int) float64 {
	return par.SumFloat64Ctx(st, st.g.N(), workers, sweptWithin)
}

// sweptWithin is what the last sweep recorded for vertex i.
func sweptWithin(st *phaseState, i int) float64 { return st.within[i] }

// currWithin is vertex i's within-community term under curr.
func currWithin(st *phaseState, i int) float64 { return st.ownWeight(i, st.curr) }
