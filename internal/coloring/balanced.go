package coloring

import (
	"cmp"
	"slices"

	"grappolo/internal/graph"
	"grappolo/internal/par"
)

// BalanceBy selects the load metric the rebalancer evens out across color
// sets.
type BalanceBy int

const (
	// BalanceByVertices balances the number of member vertices per color —
	// the balanced coloring the paper names as the remedy for the uk-2002
	// skew (§6.2, set-size RSD 18.876).
	BalanceByVertices BalanceBy = iota
	// BalanceByArcs balances the total member ARC count per color. The
	// colored sweep's work is proportional to the arcs its vertices touch,
	// not to the vertex count, so a vertex-balanced set can still hide an
	// arc-heavy straggler; arc balancing targets the sweep cost directly.
	BalanceByArcs
)

// RebalanceOptions configure a rebalancing run.
type RebalanceOptions struct {
	// Workers is the parallel worker count (<= 0: all CPUs).
	Workers int
	// By selects the balanced load metric (default BalanceByVertices).
	By BalanceBy
	// MaxRounds caps the speculative rounds (<= 0: 32). The repair converges
	// when a round commits no move, typically long before the cap.
	MaxRounds int
	// Scratch, when non-nil, supplies every working buffer including the
	// returned Coloring's storage (see Scratch for ownership rules). Use a
	// Scratch distinct from the base coloring's: the result must not clobber
	// the base colors it reads.
	Scratch *Scratch
}

// Rebalance repairs an existing coloring toward even per-color loads without
// ever increasing the color count. It runs the same speculate-and-resolve
// pattern as Parallel, but over load repair moves instead of first-fit
// assignment:
//
//  1. speculate: every vertex of an over-loaded color (load > ceil(total/k))
//     proposes a color absent from its neighborhood whose load would stay
//     strictly below its own set's. Neighborhood colors are marked in a flat
//     generation-stamped array; the improving colors form a prefix of the
//     ascending-load order, scanned from an id-derived offset so one round's
//     proposals cover every improving color instead of funneling into the
//     single least-loaded one;
//  2. resolve: of two neighboring vertices proposing the same color, the
//     lower id wins and the higher id drops its proposal;
//  3. commit: surviving proposals are applied in vertex order against live
//     loads, skipping any move the earlier commits made non-improving.
//
// Every committed move strictly decreases Σ load² while Σ load is constant,
// so the load RSD is non-increasing round over round and the repair
// terminates. Proposals read only round-start state, the resolve rule is
// symmetric, and the commit order is fixed, so the result is deterministic
// for a given base coloring regardless of Workers.
func Rebalance(g *graph.Graph, base *Coloring, o RebalanceOptions) *Coloring {
	n := g.N()
	if n == 0 || base.NumColors <= 1 {
		return base
	}
	s := o.Scratch
	if s == nil {
		s = NewScratch()
	}
	k := base.NumColors
	maxRounds := o.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 32
	}
	colors := par.Resize(s.rbColors, n)
	s.rbColors = colors
	copy(colors, base.Colors)
	offsets := g.ArcOffsets()

	// Per-worker load histograms merged in worker order: cheap and
	// deterministic. The histograms are arena-carved (their count varies with
	// the worker count, their size with k) and recycled on the next call.
	nw := par.Workers(o.Workers, n)
	s.arena.Reset()
	partial := par.Resize(s.hist, nw)
	s.hist = partial
	for w := range partial {
		partial[w] = s.arena.Int64(k)
	}
	hctx := &s.rbc
	*hctx = rebalCtx{g: g, colors: colors, offsets: offsets, hist: partial,
		byArcs: o.By == BalanceByArcs}
	par.ForStaticCtx(hctx, n, o.Workers, histogramPhase)
	loads := par.Resize(s.loads, k)
	s.loads = loads
	for c := range loads {
		loads[c] = 0
	}
	var total int64
	for _, h := range partial {
		for c, v := range h {
			loads[c] += v
		}
	}
	for _, v := range loads {
		total += v
	}
	target := (total + int64(k) - 1) / int64(k)

	proposed := par.Resize(s.proposed, n)
	s.proposed = proposed
	dropped := par.Resize(s.dropped, n)
	s.dropped = dropped
	order := par.Resize(s.order, k) // colors sorted by ascending load each round
	s.order = order
	markers := s.growMarkers(nw, k)

	ctx := &s.rbc
	*ctx = rebalCtx{g: g, colors: colors, proposed: proposed, dropped: dropped,
		order: order, loads: loads, offsets: offsets, markers: markers,
		target: target, k: k, byArcs: o.By == BalanceByArcs}
	for round := 0; round < maxRounds; round++ {
		for c := range order {
			order[c] = int32(c)
		}
		sortByLoad(order, loads)

		// Phase 1: speculative proposals. Reads only round-start colors and
		// loads, so the outcome is schedule-independent. Chunks are balanced
		// by arc count: the neighborhood scans dominate and hub vertices
		// must not serialize the sweep.
		par.ForChunkPrefixCtx(ctx, offsets, o.Workers, proposePhase)

		// Phase 2: conflict resolution. Two adjacent vertices proposing the
		// same color would break validity if both committed; the lower id
		// wins.
		par.ForChunkPrefixCtx(ctx, offsets, o.Workers, resolvePhase)

		// Phase 3: serial commit in vertex order against live loads. Cheap
		// (no arc traffic) and deterministic; the re-check keeps every
		// applied move strictly balance-improving even after earlier commits
		// in the same round shifted the loads.
		moved := 0
		for v := 0; v < n; v++ {
			cc := proposed[v]
			if cc < 0 || dropped[v] {
				continue
			}
			c := colors[v]
			wv := ctx.weight(v)
			if loads[cc]+wv < loads[c] {
				loads[c] -= wv
				loads[cc] += wv
				colors[v] = cc
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	s.rbc = rebalCtx{} // drop graph/slice references until the next kernel call
	return assembleInto(s, colors, k, base.Rounds)
}

// rebalCtx carries one rebalance round's state into the captureless loop
// bodies, passed by pointer (see par.ForChunkWorkerCtx and Scratch for why
// capturing closures and large by-value contexts are avoided on the
// pooled-engine path).
type rebalCtx struct {
	g        *graph.Graph
	colors   []int32
	proposed []int32
	dropped  []bool
	order    []int32
	loads    []int64
	offsets  []int64
	markers  []*par.Marker
	hist     [][]int64
	target   int64
	k        int
	byArcs   bool
}

func (c *rebalCtx) weight(v int) int64 {
	if c.byArcs {
		return c.offsets[v+1] - c.offsets[v]
	}
	return 1
}

func histogramPhase(c *rebalCtx, w, lo, hi int) {
	h := c.hist[w]
	for v := lo; v < hi; v++ {
		h[c.colors[v]] += c.weight(v)
	}
}

func proposePhase(c *rebalCtx, w, lo, hi int) {
	mk := c.markers[w]
	for v := lo; v < hi; v++ {
		c.proposed[v] = -1
		cv := c.colors[v]
		wv := c.weight(v)
		if wv == 0 || c.loads[cv] <= c.target {
			continue
		}
		mk.Reset()
		nbr, _ := c.g.Neighbors(v)
		for _, j := range nbr {
			if int(j) == v {
				continue
			}
			mk.Set(c.colors[j])
		}
		// Improving targets form a prefix of the ascending-load order: every
		// cc with loads[cc]+wv < loads[cv] (cv itself can never qualify).
		// Scanning that prefix from an id-derived offset instead of always
		// from the front spreads one round's proposals across ALL improving
		// colors — starting everyone at the least-loaded color would funnel
		// the round into one or two targets and both slow convergence and
		// maximize same-color conflicts between neighbors.
		lim := c.loads[cv] - wv
		lo2, hi2 := 0, c.k
		for lo2 < hi2 {
			mid := int(uint(lo2+hi2) >> 1)
			if c.loads[c.order[mid]] < lim {
				lo2 = mid + 1
			} else {
				hi2 = mid
			}
		}
		if lo2 == 0 {
			continue
		}
		start := v % lo2
		for t := 0; t < lo2; t++ {
			cc := c.order[(start+t)%lo2]
			if !mk.Has(cc) {
				c.proposed[v] = cc
				break
			}
		}
	}
}

func resolvePhase(c *rebalCtx, _, lo, hi int) {
	for v := lo; v < hi; v++ {
		pv := c.proposed[v]
		if pv < 0 {
			continue
		}
		conflict := false
		nbr, _ := c.g.Neighbors(v)
		for _, j := range nbr {
			if int(j) != v && c.proposed[j] == pv && int(j) < v {
				conflict = true
				break
			}
		}
		c.dropped[v] = conflict
	}
}

// sortByLoad sorts color ids by ascending load, breaking ties by id so the
// per-round candidate order (and with it the whole repair) is deterministic.
func sortByLoad(order []int32, loads []int64) {
	slices.SortFunc(order, func(a, b int32) int {
		if loads[a] != loads[b] {
			return cmp.Compare(loads[a], loads[b])
		}
		return cmp.Compare(a, b)
	})
}
