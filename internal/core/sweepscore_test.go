package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"grappolo/internal/generate"
	"grappolo/internal/graph"
	"grappolo/internal/par"
)

// referencePhase runs the iterations of one uncolored phase from the
// assignment in st.curr the direct way: every sweep is followed by a full
// score of the assignment it produced. It is the oracle for the scored
// snapshot sweep, which must reproduce its trace, iteration count and final
// membership bit for bit.
func referencePhase(st *phaseState, threshold float64, maxIter, workers int) (trace []float64, q float64) {
	q = st.score(workers)
	for maxIter == 0 || len(trace) < maxIter {
		st.sweepUncolored(workers)
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

// TestScoredSweepMatchesReference pins the scored snapshot sweep: Engine
// phases score each state in the sweep after the one that made it and undo
// the last, speculative sweep, yet must match the sweep-then-score loop on
// trace bits, iteration counts and memberships — on the Small suite and down
// each coarsening chain, for the modularity and CPM objectives, a non-default
// resolution and iteration caps that end phases on the cap.
func TestScoredSweepMatchesReference(t *testing.T) {
	configs := map[string]Options{
		"w1":          {Workers: 1},
		"w4":          {Workers: 4},
		"cpm-w4":      {Workers: 4, Objective: ObjCPM, CPMGamma: 0.5},
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
