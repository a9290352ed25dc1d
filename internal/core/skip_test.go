package core

import (
	"math"
	"testing"

	"grappolo/internal/generate"
	"grappolo/internal/graph"
)

// checkSkipSweeps runs uncolored sweeps with the skip and fullSweep side by
// side from the same start until a sweep moves nothing (at most 60 sweeps:
// some CPM runs cycle), and checks each
// sweep vertex by vertex: the same membership, and within[i] equal to
// ownWeight(i, prev) bit for bit, for skipped vertices too. A skipped vertex
// is one whose within entry the sweep left untouched, which a NaN planted
// before the sweep shows. It returns how many vertex visits were skipped
// and how many were made.
func checkSkipSweeps(t *testing.T, name string, g *graph.Graph, opts Options, seed []int32, own int) (skipped, visits int) {
	t.Helper()
	opts = opts.Defaults()
	var nodeSize []int64
	if opts.Objective == ObjCPM {
		nodeSize = make([]int64, g.N())
		for i := range nodeSize {
			nodeSize[i] = 1
		}
	}
	st := newPhaseState(g, opts, nodeSize, opts.Workers)
	ref := newPhaseState(g, opts, nodeSize, opts.Workers)
	if seed != nil {
		copy(st.curr, seed)
		copy(ref.curr, seed)
	}
	st.sweepOwn, ref.sweepOwn = own, own
	n := g.N()
	recorded := make([]float64, n)
	for sweep := 0; sweep < 60; sweep++ {
		copy(recorded, st.within)
		for i := range st.within {
			st.within[i] = math.NaN()
		}
		st.sweepUncolored(opts.Workers)
		fullSweep(ref, opts.Workers)
		moved := 0
		for i := 0; i < n; i++ {
			if st.curr[i] != ref.curr[i] {
				t.Fatalf("%s sweep %d vertex %d: community %d, deciding every vertex gives %d",
					name, sweep, i, st.curr[i], ref.curr[i])
			}
			got := st.within[i]
			if math.IsNaN(got) {
				skipped++
				got = recorded[i]
				st.within[i] = got
			}
			if want := ref.ownWeight(i, ref.prev); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s sweep %d vertex %d: within %v, ownWeight %v", name, sweep, i, got, want)
			}
			if st.curr[i] != st.prev[i] {
				moved++
			}
		}
		visits += n
		if moved == 0 {
			break
		}
	}
	return skipped, visits
}

// TestSkippedStaysMatchFullSweep pins the skip of uncolored sweeps sweep by
// sweep: every vertex it skips keeps the community and within term that
// deciding it would give, on the Small suite from singletons for both
// objectives, a non-default resolution and two worker counts, on a
// non-integer-weight graph with self-loops, from a seeded assignment with a
// pinned suffix, and on a coarse graph. It also requires that a third of
// all vertex visits are skipped, so a certificate that never holds fails.
func TestSkippedStaysMatchFullSweep(t *testing.T) {
	configs := map[string]Options{
		"w1":        {Workers: 1},
		"w4":        {Workers: 4},
		"cpm0.5-w4": {Workers: 4, Objective: ObjCPM, CPMGamma: 0.5},
		"cpm0.1-w1": {Workers: 1, Objective: ObjCPM, CPMGamma: 0.1},
		"res0.5-w4": {Workers: 4, Resolution: 0.5},
	}
	skipped, visits := 0, 0
	for _, in := range generate.Suite() {
		g := generate.MustGenerate(in, generate.Small, 0, 4)
		for name, o := range configs {
			s, v := checkSkipSweeps(t, string(in)+"/"+name, g, o, nil, g.N())
			skipped, visits = skipped+s, visits+v
		}
		// Triples of consecutive ids straddling the pin boundary.
		seed := make([]int32, g.N())
		for v := range seed {
			seed[v] = int32(v - v%3)
		}
		checkSkipSweeps(t, string(in)+"/pinned-w4", g, Options{Workers: 4}, seed, g.N()*3/4)
		// One level down, most rows carry a self-loop.
		res := Run(g, Options{Workers: 1, MaxPhases: 1}.Defaults())
		coarse := rebuild(g, res.Membership, res.NumCommunities, 1)
		checkSkipSweeps(t, string(in)+"/coarse-w1", coarse, Options{Workers: 1}, nil, coarse.N())
	}
	noisy := noisyLoopGraph(3000, 8, 7)
	checkSkipSweeps(t, "noisy/w1", noisy, Options{Workers: 1}, nil, noisy.N())
	checkSkipSweeps(t, "noisy/cpm-w1", noisy, Options{Workers: 1, Objective: ObjCPM, CPMGamma: 0.1}, nil, noisy.N())
	t.Logf("skipped %d of %d vertex visits", skipped, visits)
	if skipped*3 < visits {
		t.Fatalf("skipped %d of %d vertex visits, want at least a third", skipped, visits)
	}
}
