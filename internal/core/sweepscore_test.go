package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"grappolo/internal/coloring"
	"grappolo/internal/generate"
	"grappolo/internal/graph"
	"grappolo/internal/par"
)

// fullSweep is the uncolored sweep without the skip: every movable vertex
// decides with decideSnap against the snapshot and the a_C refreshed from
// it. Decisions read only the snapshot and the aggregates, so deciding in
// id order on one accumulator gives what any chunking would.
func fullSweep(st *phaseState, workers int) {
	copy(st.prev, st.curr)
	st.refreshAggregates(st.prev, workers)
	acc := st.scratch[0]
	for i := 0; i < st.sweepOwn; i++ {
		st.curr[i], _, _ = st.decideSnap(i, st.prev, acc)
	}
}

// referencePhase runs the iterations of one uncolored phase from the
// assignment in st.curr the direct way: every vertex is decided in every
// sweep (fullSweep), and every sweep is followed by a full score of the
// assignment it produced. It is the oracle for the scored snapshot sweep
// and its skip, which must reproduce its trace, iteration count and final
// membership bit for bit.
func referencePhase(st *phaseState, threshold float64, maxIter, workers int) (trace []float64, q float64) {
	q = st.score(workers)
	for maxIter == 0 || len(trace) < maxIter {
		fullSweep(st, workers)
		next := st.score(workers)
		trace = append(trace, next)
		gain := next - q
		q = next
		if gain < threshold {
			break
		}
	}
	return trace, q
}

// sameBits reports whether two score traces are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkPhaseChain runs Engine phases down g's coarsening chain (each phase
// on the rebuild of the previous phase's result, as a run does) and checks
// every phase against referencePhase from the same graph and starting
// state. Coarse graphs carry a self-loop in most rows.
func checkPhaseChain(t *testing.T, name string, g *graph.Graph, opts Options) {
	t.Helper()
	opts = opts.Defaults()
	eng := NewEngine(opts)
	var nodeSize []int64
	if opts.Objective == ObjCPM {
		nodeSize = make([]int64, g.N())
		for i := range nodeSize {
			nodeSize[i] = 1
		}
	}
	for level := 0; g.N() > 0; level++ {
		ref := newPhaseState(g, opts, nodeSize, opts.Workers)
		trace, q := referencePhase(ref, opts.FinalThreshold, opts.MaxIterations, opts.Workers)
		dense, stats, gotQ, aborted := eng.runPhase(g, opts.FinalThreshold, nil, false, nodeSize, nil)
		where := fmt.Sprintf("%s level %d (n=%d)", name, level, g.N())
		if aborted {
			t.Fatalf("%s: phase aborted", where)
		}
		if stats.Iterations != len(trace) || !sameBits(stats.Modularity, trace) {
			t.Fatalf("%s: %d iterations, trace %v; reference %d iterations, trace %v",
				where, stats.Iterations, stats.Modularity, len(trace), trace)
		}
		if math.Float64bits(gotQ) != math.Float64bits(q) {
			t.Fatalf("%s: final score %v, reference %v", where, gotQ, q)
		}
		if !slices.Equal(eng.st.curr, ref.curr) {
			t.Fatalf("%s: memberships differ", where)
		}
		nc := int(maxInt32(dense)) + 1
		if nc == g.N() {
			return
		}
		if nodeSize != nil {
			next := make([]int64, nc)
			for v, c := range dense {
				next[c] += nodeSize[v]
			}
			nodeSize = next
		}
		g = rebuild(g, dense, nc, opts.Workers)
	}
}

// checkSeeded runs Engine.SweepSeeded and the reference loop from the same
// seed and pinned suffix and compares them.
func checkSeeded(t *testing.T, name string, g *graph.Graph, opts Options, seed []int32, own int) {
	t.Helper()
	opts = opts.Defaults()
	ref := newPhaseState(g, opts, nil, opts.Workers)
	copy(ref.curr, seed)
	ref.sweepOwn = own
	trace, q := referencePhase(ref, opts.FinalThreshold, opts.MaxIterations, opts.Workers)
	out := make([]int32, g.N())
	iters, gotQ, err := NewEngine(opts).SweepSeeded(context.Background(), g, seed, own, out)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if iters != len(trace) || math.Float64bits(gotQ) != math.Float64bits(q) {
		t.Fatalf("%s: %d iterations, Q=%v; reference %d iterations, Q=%v", name, iters, gotQ, len(trace), q)
	}
	if !slices.Equal(out, ref.curr) {
		t.Fatalf("%s: memberships differ", name)
	}
}

// noisyLoopGraph is a random graph with non-integer weights in [0.1, 3.8)
// and a self-loop on every third vertex. Rows are sorted by neighbor id, so
// most self-loops sit in the middle of their row, where summing the row out
// of arc order changes a float sum's low bits.
func noisyLoopGraph(n, deg int, seed uint64) *graph.Graph {
	rng := par.NewRNG(seed)
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for k := 0; k < deg/2; k++ {
			if v := rng.Intn(n); v != u {
				b.AddEdge(int32(u), int32(v), 0.1+3.7*rng.Float64())
			}
		}
		if u%3 == 0 {
			b.AddEdge(int32(u), int32(u), 0.1+3.7*rng.Float64())
		}
	}
	return b.Build(1)
}

// TestScoredSweepMatchesReference pins the scored snapshot sweep and its
// skip: Engine phases score each state in the sweep after the one that made
// it, undo the last, speculative sweep and skip certified stays, yet must
// match the decide-everything, sweep-then-score loop on trace bits,
// iteration counts and memberships — on the Small suite and down each
// coarsening chain, for the modularity and CPM objectives, a non-default
// resolution and iteration caps that end phases on the cap.
func TestScoredSweepMatchesReference(t *testing.T) {
	configs := map[string]Options{
		"w1":          {Workers: 1},
		"w4":          {Workers: 4},
		"cpm-w4":      {Workers: 4, Objective: ObjCPM, CPMGamma: 0.5},
		"cpm0.1-w1":   {Workers: 1, Objective: ObjCPM, CPMGamma: 0.1},
		"res0.5-w4":   {Workers: 4, Resolution: 0.5},
		"maxiter1-w4": {Workers: 4, MaxIterations: 1},
		"maxiter2-w1": {Workers: 1, MaxIterations: 2},
		"maxiter8-w4": {Workers: 4, MaxIterations: 8},
	}
	for _, in := range generate.Suite() {
		g := generate.MustGenerate(in, generate.Small, 0, 4)
		for name, o := range configs {
			checkPhaseChain(t, string(in)+"/"+name, g, o)
		}
	}
	// Non-integer weights and mid-row self-loops: a within term summed out
	// of arc order shows in Q's low bits. One worker keeps a_C exact.
	noisy := noisyLoopGraph(3000, 8, 7)
	checkPhaseChain(t, "noisy/w1", noisy, Options{Workers: 1})
	checkPhaseChain(t, "noisy/maxiter2-w1", noisy, Options{Workers: 1, MaxIterations: 2})
	checkPhaseChain(t, "noisy/cpm-w1", noisy, Options{Workers: 1, Objective: ObjCPM, CPMGamma: 0.1})
}

// TestSweepSeededMatchesReference is TestScoredSweepMatchesReference for
// Engine.SweepSeeded, whose pinned suffix is never swept but still scored.
func TestSweepSeededMatchesReference(t *testing.T) {
	inputs := []generate.Input{generate.CNR, generate.EuropeOSM, generate.MG1, generate.Channel}
	for _, in := range inputs {
		g := generate.MustGenerate(in, generate.Small, 0, 4)
		n := g.N()
		// Triples of consecutive ids: seeded communities straddle the pin
		// boundary, so movable vertices see pinned labels.
		seed := make([]int32, n)
		for v := range seed {
			seed[v] = int32(v - v%3)
		}
		for _, w := range []int{1, 4} {
			for _, maxIter := range []int{0, 1, 8} {
				for _, own := range []int{n, n * 3 / 4} {
					name := fmt.Sprintf("%s/w%d/maxiter%d/own%d", in, w, maxIter, own)
					checkSeeded(t, name, g, Options{Workers: w, MaxIterations: maxIter}, seed, own)
				}
			}
		}
	}
	noisy := noisyLoopGraph(3000, 8, 11)
	checkSeeded(t, "noisy/w1", noisy, Options{Workers: 1}, identitySeed(noisy.N()), noisy.N()*2/3)
}

// referenceColoredPhase is referencePhase for colored phases: every colored
// sweep is followed by a full score of the state it left (a_C rebuilt from
// curr and a pass over every arc), and the next sweep starts from the
// aggregates that score rebuilt. It is the oracle for scoring a colored
// sweep from its own moves.
func referenceColoredPhase(st *phaseState, sets [][]int32, threshold float64, maxIter, workers int) (trace []float64, q float64) {
	q = st.score(workers)
	for maxIter == 0 || len(trace) < maxIter {
		st.sweepColored(sets, workers)
		next := st.score(workers)
		trace = append(trace, next)
		gain := next - q
		q = next
		if gain < threshold {
			break
		}
	}
	return trace, q
}

// colorSets colors one phase's graph the way a run would for some
// configuration, and reports whether the sets are arc-rebalanced.
type colorSets func(g *graph.Graph, workers int) (*coloring.Coloring, bool)

func distance1Sets(g *graph.Graph, workers int) (*coloring.Coloring, bool) {
	return coloring.Parallel(g, workers), false
}

func distance2Sets(g *graph.Graph, workers int) (*coloring.Coloring, bool) {
	return coloring.ParallelDistance2(g, workers), false
}

func arcBalancedSets(g *graph.Graph, workers int) (*coloring.Coloring, bool) {
	cs := coloring.Rebalance(g, coloring.Parallel(g, workers),
		coloring.RebalanceOptions{Workers: workers, By: coloring.BalanceByArcs})
	return cs, true
}

// coloredPhase is what one colored Engine phase reported.
type coloredPhase struct {
	trace      []float64
	q          float64
	membership []int32
}

// checkColoredChain runs colored Engine phases down g's coarsening chain,
// each on a fresh coloring of its graph. With exact set, it checks every
// phase against referenceColoredPhase from the same graph, coloring and
// starting state on trace bits, iteration count, final score and
// membership; otherwise it checks that each phase's final score is within
// 1e-12 of a fresh score of the membership it reports. It returns the
// phases it ran.
func checkColoredChain(t *testing.T, name string, g *graph.Graph, opts Options, sets colorSets, exact bool) []coloredPhase {
	t.Helper()
	opts = opts.Defaults()
	eng := NewEngine(opts)
	var nodeSize []int64
	if opts.Objective == ObjCPM {
		nodeSize = make([]int64, g.N())
		for i := range nodeSize {
			nodeSize[i] = 1
		}
	}
	var phases []coloredPhase
	for level := 0; g.N() > 0; level++ {
		where := fmt.Sprintf("%s level %d (n=%d)", name, level, g.N())
		cs, arcEven := sets(g, opts.Workers)
		dense, stats, gotQ, aborted := eng.runPhase(g, opts.ColoredThreshold, cs, arcEven, nodeSize, nil)
		if aborted {
			t.Fatalf("%s: phase aborted", where)
		}
		if exact {
			ref := newPhaseState(g, opts, nodeSize, opts.Workers)
			ref.arcEvenSets = arcEven
			trace, q := referenceColoredPhase(ref, cs.Sets, opts.ColoredThreshold, opts.MaxIterations, opts.Workers)
			if stats.Iterations != len(trace) || !sameBits(stats.Modularity, trace) {
				t.Fatalf("%s: %d iterations, trace %v; reference %d iterations, trace %v",
					where, stats.Iterations, stats.Modularity, len(trace), trace)
			}
			if math.Float64bits(gotQ) != math.Float64bits(q) {
				t.Fatalf("%s: final score %v, reference %v", where, gotQ, q)
			}
			if !slices.Equal(eng.st.curr, ref.curr) {
				t.Fatalf("%s: memberships differ", where)
			}
		} else {
			fresh := newPhaseState(g, opts, nodeSize, opts.Workers)
			copy(fresh.curr, eng.st.curr)
			if freshQ := fresh.score(opts.Workers); math.Abs(gotQ-freshQ) > 1e-12 {
				t.Fatalf("%s: final score %v, a fresh score of its membership %v", where, gotQ, freshQ)
			}
		}
		phases = append(phases, coloredPhase{stats.Modularity, gotQ, slices.Clone(eng.st.curr)})
		nc := int(maxInt32(dense)) + 1
		if nc == g.N() {
			break
		}
		if nodeSize != nil {
			next := make([]int64, nc)
			for v, c := range dense {
				next[c] += nodeSize[v]
			}
			nodeSize = next
		}
		g = rebuild(g, dense, nc, opts.Workers)
	}
	return phases
}

// TestColoredSweepMatchesReference pins scoring a colored sweep from its own
// moves: Engine phases, which score each colored state from the within
// deltas its sweep recorded and the aggregates applyMove kept, must match
// the sweep-then-score loop on trace bits, iteration counts, final scores
// and memberships — on the Small suite and down each coarsening chain, at
// one worker (moves in order) and four (decide, then apply), for both
// objectives, a non-default resolution, an iteration cap, a fine colored
// threshold, distance-2 colorings and arc-rebalanced sets.
func TestColoredSweepMatchesReference(t *testing.T) {
	configs := []struct {
		name string
		opts Options
		sets colorSets
	}{
		{"w1", Options{Workers: 1}, distance1Sets},
		{"w4", Options{Workers: 4}, distance1Sets},
		{"cpm0.5-w4", Options{Workers: 4, Objective: ObjCPM, CPMGamma: 0.5}, distance1Sets},
		{"cpm0.1-w1", Options{Workers: 1, Objective: ObjCPM, CPMGamma: 0.1}, distance1Sets},
		{"res0.5-w4", Options{Workers: 4, Resolution: 0.5}, distance1Sets},
		{"maxiter1-w4", Options{Workers: 4, MaxIterations: 1}, distance1Sets},
		{"threshold1e-6-w4", Options{Workers: 4, ColoredThreshold: 1e-6}, distance1Sets},
		{"d2-w4", Options{Workers: 4}, distance2Sets},
		{"arcs-w4", Options{Workers: 4}, arcBalancedSets},
		{"arcs-w1", Options{Workers: 1}, arcBalancedSets},
	}
	for _, in := range generate.Suite() {
		g := generate.MustGenerate(in, generate.Small, 0, 4)
		for _, c := range configs {
			checkColoredChain(t, string(in)+"/"+c.name, g, c.opts, c.sets, true)
		}
	}
	// Non-integer weights: the running within sum and the applied a_C round
	// differently from a fresh score, by far less than any gain threshold.
	// One worker applies moves in a fixed order, so its runs repeat exactly.
	noisy := noisyLoopGraph(3000, 8, 7)
	for name, o := range map[string]Options{
		"w1":     {Workers: 1},
		"w4":     {Workers: 4},
		"cpm-w1": {Workers: 1, Objective: ObjCPM, CPMGamma: 0.1},
	} {
		first := checkColoredChain(t, "noisy/"+name, noisy, o, distance1Sets, false)
		if o.Workers != 1 {
			continue
		}
		again := checkColoredChain(t, "noisy/"+name, noisy, o, distance1Sets, false)
		if !slices.EqualFunc(first, again, func(a, b coloredPhase) bool {
			return sameBits(a.trace, b.trace) && math.Float64bits(a.q) == math.Float64bits(b.q) &&
				slices.Equal(a.membership, b.membership)
		}) {
			t.Fatalf("noisy/%s: two runs differ", name)
		}
	}
}
