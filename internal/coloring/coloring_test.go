package coloring

import (
	"slices"
	"testing"
	"testing/quick"

	"grappolo/internal/generate"
	"grappolo/internal/graph"
	"grappolo/internal/par"
)

func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	return b.Build(2)
}

func clique(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j), 1)
		}
	}
	return b.Build(2)
}

func TestGreedyPathUsesTwoColors(t *testing.T) {
	c := Greedy(path(10))
	if err := Verify(path(10), c.Colors); err != nil {
		t.Fatal(err)
	}
	if c.NumColors != 2 {
		t.Fatalf("path colored with %d colors, want 2", c.NumColors)
	}
}

func TestGreedyCliqueNeedsNColors(t *testing.T) {
	g := clique(7)
	c := Greedy(g)
	if err := Verify(g, c.Colors); err != nil {
		t.Fatal(err)
	}
	if c.NumColors != 7 {
		t.Fatalf("K7 colored with %d colors, want 7", c.NumColors)
	}
}

func TestGreedyHandlesSelfLoops(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 0, 1)
	b.AddEdge(0, 1, 1)
	g := b.Build(1)
	c := Greedy(g)
	if err := Verify(g, c.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyEmptyGraph(t *testing.T) {
	c := Greedy(graph.NewBuilder(0).Build(1))
	if c.NumColors != 0 || len(c.Sets) != 0 {
		t.Fatalf("empty graph coloring: %+v", c)
	}
	st := c.ComputeStats()
	if st.NumColors != 0 || st.MinSet != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestParallelValidOnSuite(t *testing.T) {
	for _, in := range generate.Suite() {
		g := generate.MustGenerate(in, generate.Small, 0, 4)
		for _, p := range []int{1, 4, 8} {
			c := Parallel(g, p)
			if err := Verify(g, c.Colors); err != nil {
				t.Fatalf("%s p=%d: %v", in, p, err)
			}
			if c.NumColors < 1 {
				t.Fatalf("%s p=%d: no colors", in, p)
			}
			// Sanity: color count should not explode beyond maxdeg+1 by much;
			// speculative greedy guarantees <= maxdeg+1 after resolution.
			st := graph.ComputeStats(g)
			if c.NumColors > st.MaxDeg+1 {
				t.Fatalf("%s p=%d: %d colors > maxdeg+1 = %d", in, p, c.NumColors, st.MaxDeg+1)
			}
		}
	}
}

func TestParallelMatchesGreedyOnSingleWorker(t *testing.T) {
	// With one worker and no conflicts possible inside a round... speculative
	// coloring still differs from Greedy only via round structure; both must
	// be valid and use the same number of colors on a bipartite graph.
	g := path(50)
	cp := Parallel(g, 1)
	if err := Verify(g, cp.Colors); err != nil {
		t.Fatal(err)
	}
	if cp.NumColors != 2 {
		t.Fatalf("parallel path coloring used %d colors", cp.NumColors)
	}
}

func TestParallelRepeatsForWorkerCount(t *testing.T) {
	g := generate.MustGenerate(generate.UK2002, generate.Small, 0, 4)
	if !slices.Equal(Parallel(g, 1).Colors, Greedy(g).Colors) {
		t.Fatal("one worker must give Greedy's coloring")
	}
	for _, p := range []int{2, 3, 4, 8} {
		ref := Parallel(g, p)
		for rep := 0; rep < 5; rep++ {
			if got := Parallel(g, p); !slices.Equal(got.Colors, ref.Colors) {
				t.Fatalf("p=%d: run %d colors differ from the first run's", p, rep+2)
			}
		}
	}
}

func TestParallelSetsPartitionVertices(t *testing.T) {
	g := generate.MustGenerate(generate.CNR, generate.Small, 0, 4)
	c := Parallel(g, 4)
	seen := make([]bool, g.N())
	total := 0
	for cc, set := range c.Sets {
		for _, v := range set {
			if seen[v] {
				t.Fatalf("vertex %d in two sets", v)
			}
			if c.Colors[v] != int32(cc) {
				t.Fatalf("vertex %d in set %d but colored %d", v, cc, c.Colors[v])
			}
			seen[v] = true
			total++
		}
	}
	if total != g.N() {
		t.Fatalf("sets cover %d of %d vertices", total, g.N())
	}
}

func TestVerifyCatchesConflicts(t *testing.T) {
	g := path(3)
	if err := Verify(g, []int32{0, 0, 1}); err == nil {
		t.Fatal("want conflict error")
	}
	if err := Verify(g, []int32{0, -1, 0}); err == nil {
		t.Fatal("want uncolored error")
	}
	if err := Verify(g, []int32{0}); err == nil {
		t.Fatal("want length error")
	}
	if err := Verify(g, []int32{0, 1, 0}); err != nil {
		t.Fatalf("valid coloring rejected: %v", err)
	}
}

func TestBalancedPreservesValidityAndImprovesRSD(t *testing.T) {
	// A star graph yields maximal imbalance: center one color, leaves the
	// other. Balancing cannot fix a star (leaves are mutually non-adjacent
	// but only 2 colors exist with all leaves movable to color 0? no — the
	// center blocks nothing between leaves), so use a skewed web graph where
	// rebalancing has room to work.
	g := generate.MustGenerate(generate.UK2002, generate.Small, 0, 4)
	base := Parallel(g, 4)
	bal := Rebalance(g, base, RebalanceOptions{Workers: 4})
	if err := Verify(g, bal.Colors); err != nil {
		t.Fatalf("balanced coloring invalid: %v", err)
	}
	if bal.NumColors > base.NumColors {
		t.Fatalf("balancing increased colors: %d > %d", bal.NumColors, base.NumColors)
	}
	sb, sa := base.ComputeStats(), bal.ComputeStats()
	if sa.RSD > sb.RSD+1e-9 {
		t.Fatalf("balancing worsened RSD: %.3f -> %.3f", sb.RSD, sa.RSD)
	}
	t.Logf("base %s -> balanced %s", sb, sa)
}

func TestBalancedNoopOnTrivial(t *testing.T) {
	g := path(2)
	base := Greedy(g)
	bal := Rebalance(g, base, RebalanceOptions{Workers: 2})
	if err := Verify(g, bal.Colors); err != nil {
		t.Fatal(err)
	}
	empty := Greedy(graph.NewBuilder(0).Build(1))
	if got := Rebalance(graph.NewBuilder(0).Build(1), empty, RebalanceOptions{Workers: 2}); got != empty {
		t.Fatal("empty graph should return base coloring unchanged")
	}
}

func TestStatsString(t *testing.T) {
	g := path(9)
	st := Greedy(g).ComputeStats()
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
	if st.MaxSet != 5 || st.MinSet != 4 {
		t.Fatalf("path(9) 2-coloring sets: %+v", st)
	}
}

// Property: parallel coloring is valid on random graphs for arbitrary seeds
// and worker counts.
func TestParallelColoringProperty(t *testing.T) {
	f := func(seed uint64, pRaw uint8) bool {
		p := int(pRaw%8) + 1
		rng := par.NewRNG(seed)
		n := 50 + rng.Intn(200)
		b := graph.NewBuilder(n)
		for e := 0; e < n*3; e++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), 1)
		}
		g := b.Build(4)
		c := Parallel(g, p)
		return Verify(g, c.Colors) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
