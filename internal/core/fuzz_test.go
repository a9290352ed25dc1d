package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"grappolo/internal/coloring"
	"grappolo/internal/generate"
	"grappolo/internal/graph"
	"grappolo/internal/par"
	"grappolo/internal/seq"
)

// randomGraph builds an arbitrary valid weighted graph (self-loops,
// isolated vertices, duplicate edges all possible) from fuzz inputs.
func randomGraph(seed uint64, nRaw, mRaw uint16) *graph.Graph {
	rng := par.NewRNG(seed)
	n := int(nRaw%300) + 2
	m := int(mRaw % 2000)
	b := graph.NewBuilder(n)
	for e := 0; e < m; e++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		w := 0.25 + rng.Float64()*4
		b.AddEdge(u, v, w)
	}
	return b.Build(4)
}

// TestPipelineFuzz pushes arbitrary graphs through every variant and checks
// the cross-cutting invariants: valid dense membership, reported modularity
// equals recomputed modularity, Q <= 1, and the graph itself survives
// unmodified.
func TestPipelineFuzz(t *testing.T) {
	variants := []func() Options{
		func() Options { return smallOpts(4) },
		func() Options { return withVF(smallOpts(3)) },
		func() Options { return withColor(withVF(smallOpts(4))) },
		func() Options { return withChain(withVF(smallOpts(2))) },
		func() Options { return PLM(4) },
	}
	f := func(seed uint64, nRaw, mRaw uint16, variantRaw uint8) bool {
		g := randomGraph(seed, nRaw, mRaw)
		before := g.TotalWeight()
		opts := variants[int(variantRaw)%len(variants)]()
		res := Run(g, opts)
		if len(res.Membership) != g.N() {
			t.Logf("membership length %d != %d", len(res.Membership), g.N())
			return false
		}
		seen := map[int32]bool{}
		for _, c := range res.Membership {
			if c < 0 || int(c) >= g.N() {
				t.Logf("community %d out of range", c)
				return false
			}
			seen[c] = true
		}
		if len(seen) != res.NumCommunities {
			t.Logf("NumCommunities=%d distinct=%d", res.NumCommunities, len(seen))
			return false
		}
		q := seq.Modularity(g, res.Membership, 1)
		if math.Abs(q-res.Modularity) > 1e-9 {
			t.Logf("Q mismatch: %v vs %v", res.Modularity, q)
			return false
		}
		if q > 1+1e-12 {
			t.Logf("Q=%v > 1", q)
			return false
		}
		if g.TotalWeight() != before {
			t.Log("input graph mutated")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// recount sums a_C, |C| and, under CPM, the node-size sums of membership
// from scratch in id order.
func recount(st *phaseState, membership []int32) (deg []float64, size, ns []int64) {
	n := st.g.N()
	deg, size = make([]float64, n), make([]int64, n)
	if st.commNS != nil {
		ns = make([]int64, n)
	}
	for i, c := range membership {
		deg[c] += st.g.Degree(i)
		size[c]++
		if ns != nil {
			ns[c] += st.nodeSize[i]
		}
	}
	return deg, size, ns
}

// checkAggregates fails unless st's a_C are within tol of a recount of
// membership (equal bit for bit when tol is 0) and its |C| and CPM
// node-size sums equal the recount's.
func checkAggregates(t *testing.T, where string, st *phaseState, membership []int32, tol float64) {
	t.Helper()
	deg, size, ns := recount(st, membership)
	for c := range deg {
		if d := st.commDeg[c]; math.Abs(d-deg[c]) > tol || tol == 0 && math.Float64bits(d) != math.Float64bits(deg[c]) {
			t.Fatalf("%s: commDeg[%d]=%v want %v", where, c, d, deg[c])
		}
		if st.size[c] != size[c] {
			t.Fatalf("%s: size[%d]=%d want %d", where, c, st.size[c], size[c])
		}
		if ns != nil && st.commNS[c] != ns[c] {
			t.Fatalf("%s: commNS[%d]=%d want %d", where, c, st.commNS[c], ns[c])
		}
	}
}

// TestSweepAggregateConsistency verifies that the aggregates every sweep
// reads equal a from-scratch recount, the invariant that makes carrying
// them by moves safe. A colored sweep keeps a_C, |C| and the CPM node-size
// sums current with atomic updates as its sets move, so they must describe
// curr after it. An uncolored sweep reads the snapshot prev, with
// aggregates the phase's first sweep recounted and every later sweep
// carried by the last sweep's moves, so they must describe prev after it.
// A phase undoes its last, speculative sweep, whose moves are never
// applied, so after Engine.runPhase and Engine.SweepSeeded they must
// describe curr. Rows with non-integer weights allow a_C 1e-6 of rounding;
// with integer weights a_C is exact and must match bit for bit. |C| and the
// node-size sums are integers and always match exactly.
func TestSweepAggregateConsistency(t *testing.T) {
	noisy := randomGraph(77, 200, 1500)
	small := generate.MustGenerate(generate.Channel, generate.Small, 0, 4)
	cases := []struct {
		name    string
		g       *graph.Graph
		opts    Options
		colored bool
		seeded  bool // start from triples of consecutive ids, the last quarter pinned
		tol     float64
	}{
		{"colored", noisy, Options{Workers: 4}, true, false, 1e-6},
		{"uncolored", noisy, Options{Workers: 4}, false, false, 1e-6},
		{"uncolored-integer", small, Options{Workers: 4}, false, false, 0},
		{"uncolored-cpm", noisy, Options{Workers: 4, Objective: ObjCPM, CPMGamma: 0.1}, false, false, 1e-6},
		{"uncolored-seeded", small, Options{Workers: 4}, false, true, 0},
	}
	for _, c := range cases {
		opts := c.opts.Defaults()
		g, w := c.g, opts.Workers
		n := g.N()
		var nodeSize []int64
		if opts.Objective == ObjCPM {
			nodeSize = make([]int64, n)
			for i := range nodeSize {
				nodeSize[i] = 1
			}
		}
		st := newPhaseState(g, opts, nodeSize, w)
		if c.colored {
			cs := coloring.Parallel(g, w)
			if err := coloring.Verify(g, cs.Colors); err != nil {
				t.Fatal(err)
			}
			for iter := 0; iter < 3; iter++ {
				st.sweepColored(cs.Sets, w)
				checkAggregates(t, fmt.Sprintf("%s iter %d", c.name, iter), st, st.curr, c.tol)
			}
			continue
		}
		seed, own := identitySeed(n), n
		if c.seeded {
			for v := range seed {
				seed[v] = int32(v - v%3)
			}
			own = n * 3 / 4
		}
		copy(st.curr, seed)
		st.sweepOwn = own
		for sweep := 0; sweep < 60; sweep++ {
			st.sweepUncolored(w)
			checkAggregates(t, fmt.Sprintf("%s sweep %d", c.name, sweep), st, st.prev, c.tol)
			if slices.Equal(st.curr, st.prev) {
				break
			}
		}
		eng := NewEngine(opts)
		if c.seeded {
			out := make([]int32, n)
			if _, _, err := eng.SweepSeeded(context.Background(), g, seed, own, out); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		} else if _, _, _, aborted := eng.runPhase(g, opts.FinalThreshold, nil, nodeSize, nil); aborted {
			t.Fatalf("%s: phase aborted", c.name)
		}
		checkAggregates(t, c.name+" after the phase", &eng.st, eng.st.curr, c.tol)
	}
}
