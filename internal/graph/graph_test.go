package graph

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"grappolo/internal/par"
)

// triangle returns the weighted triangle 0-1-2 plus a self-loop at 2.
func triangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(0, 2, 3)
	b.AddEdge(2, 2, 5)
	g := b.Build(2)
	if err := g.Validate(); err != nil {
		t.Fatalf("triangle invalid: %v", err)
	}
	return g
}

func TestBuildTriangleBasics(t *testing.T) {
	g := triangle(t)
	if g.N() != 3 {
		t.Fatalf("N=%d", g.N())
	}
	if g.EdgeCount() != 4 {
		t.Fatalf("EdgeCount=%d, want 4", g.EdgeCount())
	}
	if g.ArcCount() != 7 { // 3 non-loop edges ×2 + 1 loop
		t.Fatalf("ArcCount=%d, want 7", g.ArcCount())
	}
	wantDeg := []float64{4, 3, 10}
	for i, want := range wantDeg {
		if got := g.Degree(i); got != want {
			t.Fatalf("Degree(%d)=%v want %v", i, got, want)
		}
	}
	if got, want := g.TotalWeight(), 17.0; got != want {
		t.Fatalf("TotalWeight=%v want %v", got, want)
	}
	if got, want := g.M(), 8.5; got != want {
		t.Fatalf("M=%v want %v", got, want)
	}
	if g.SelfLoopWeight(2) != 5 || g.SelfLoopWeight(0) != 0 {
		t.Fatal("SelfLoopWeight wrong")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 1) {
		t.Fatal("HasEdge wrong")
	}
	if w, ok := g.EdgeWeight(1, 2); !ok || w != 2 {
		t.Fatalf("EdgeWeight(1,2)=%v,%v", w, ok)
	}
	if _, ok := g.EdgeWeight(0, 0); ok {
		t.Fatal("EdgeWeight(0,0) should not exist")
	}
}

func TestBuilderMergesDuplicatesBothOrientations(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 0, 2.5)
	b.AddEdge(0, 1, 0) // weight <= 0 → 1
	g := b.Build(3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 1 {
		t.Fatalf("EdgeCount=%d want 1", g.EdgeCount())
	}
	w, ok := g.EdgeWeight(0, 1)
	if !ok || w != 4.5 {
		t.Fatalf("merged weight=%v want 4.5", w)
	}
}

func TestBuilderImplicitGrow(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 9, 1)
	g := b.Build(1)
	if g.N() != 10 {
		t.Fatalf("N=%d want 10", g.N())
	}
	if g.OutDegree(0) != 0 || g.OutDegree(5) != 1 {
		t.Fatal("isolated / connected degrees wrong")
	}
}

func TestBuilderDuplicateSelfLoops(t *testing.T) {
	b := NewBuilder(1)
	b.AddEdge(0, 0, 2)
	b.AddEdge(0, 0, 3)
	g := b.Build(2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.SelfLoopWeight(0) != 5 {
		t.Fatalf("loop weight %v want 5", g.SelfLoopWeight(0))
	}
	if g.Degree(0) != 5 || g.M() != 2.5 {
		t.Fatalf("degree=%v m=%v", g.Degree(0), g.M())
	}
}

func TestNeighborsSortedAfterBuild(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(4, 0, 1)
	b.AddEdge(4, 2, 1)
	b.AddEdge(4, 1, 1)
	b.AddEdge(4, 3, 1)
	g := b.Build(4)
	nbr, _ := g.Neighbors(4)
	for i := 1; i < len(nbr); i++ {
		if nbr[i-1] >= nbr[i] {
			t.Fatalf("row not sorted: %v", nbr)
		}
	}
}

// TestBuildParallelMatchesSerial pins the builder bit for bit: at every
// worker count, its offsets, neighbors and weight bits must equal those of
// referenceCSR, on a random list and on a shuffled, duplicate-heavy copy.
func TestBuildParallelMatchesSerial(t *testing.T) {
	rng := par.NewRNG(11)
	var edges []Edge
	const n = 500
	for i := 0; i < 3000; i++ {
		edges = append(edges, Edge{
			U: int32(rng.Intn(n)), V: int32(rng.Intn(n)),
			W: 1 + rng.Float64(),
		})
	}
	// The copy repeats edges in both orientations, adds self-loops, and
	// draws non-integer weights (and some <= 0, which build as 1), so rows
	// hold duplicates whose merged sum depends on the order of addition.
	// Hub 7 gets a row longer than insertionRowMax.
	dups := slices.Clone(edges)
	for i := 0; i < 400; i++ {
		dups = append(dups, Edge{U: int32(rng.Intn(n)), V: 7, W: 0.1 + rng.Float64()})
	}
	for i, e := range edges {
		if i%3 == 0 {
			dups = append(dups, Edge{U: e.V, V: e.U, W: 0.1 + rng.Float64()})
		}
		if i%4 == 0 {
			dups = append(dups, Edge{U: e.U, V: e.V, W: 0.1 + rng.Float64()})
		}
		if i%10 == 0 {
			dups = append(dups, Edge{U: e.U, V: e.U, W: 0.1 + rng.Float64()})
		}
		if i%50 == 0 {
			dups = append(dups, Edge{U: e.V, V: e.U, W: -rng.Float64()})
		}
	}
	shuffled := make([]Edge, len(dups))
	for i, j := range rng.Perm(len(dups)) {
		shuffled[i] = dups[j]
	}
	for _, tc := range []struct {
		name  string
		edges []Edge
	}{{"random", edges}, {"shuffled-duplicates", shuffled}} {
		wantOff, wantAdj, wantW := referenceCSR(n, tc.edges)
		for _, p := range []int{1, 2, 3, 8} {
			g := FromEdges(n, tc.edges, p)
			if err := g.Validate(); err != nil {
				t.Fatalf("%s p=%d: %v", tc.name, p, err)
			}
			if !slices.Equal(g.offsets, wantOff) || !slices.Equal(g.adj, wantAdj) {
				t.Fatalf("%s p=%d: rows differ from the reference", tc.name, p)
			}
			for i, w := range g.weights {
				if math.Float64bits(w) != math.Float64bits(wantW[i]) {
					t.Fatalf("%s p=%d: arc %d weight %v, reference %v", tc.name, p, i, w, wantW[i])
				}
			}
		}
	}
}

// referenceCSR is the plain serial build: every arc (weights <= 0 as 1),
// sorted by (u, v, w), with each run of equal (u, v) summed in that order.
func referenceCSR(n int, edges []Edge) ([]int64, []int32, []float64) {
	type arc struct {
		u, v int32
		w    float64
	}
	var arcs []arc
	for _, e := range edges {
		w := e.W
		if w <= 0 {
			w = 1
		}
		arcs = append(arcs, arc{e.U, e.V, w})
		if e.U != e.V {
			arcs = append(arcs, arc{e.V, e.U, w})
		}
	}
	slices.SortFunc(arcs, func(a, b arc) int {
		return cmp.Or(cmp.Compare(a.u, b.u), cmp.Compare(a.v, b.v), cmp.Compare(a.w, b.w))
	})
	offsets := make([]int64, n+1)
	var adj []int32
	var weights []float64
	for i, a := range arcs {
		if i > 0 && arcs[i-1].u == a.u && arcs[i-1].v == a.v {
			weights[len(weights)-1] += a.w
			continue
		}
		adj = append(adj, a.v)
		weights = append(weights, a.w)
		offsets[a.u+1]++
	}
	for u := 0; u < n; u++ {
		offsets[u+1] += offsets[u]
	}
	return offsets, adj, weights
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := &Graph{
		offsets: []int64{0, 1, 1},
		adj:     []int32{1},
		weights: []float64{1},
		degree:  []float64{1, 0},
		totalW:  1,
	}
	if err := g.Validate(); err == nil {
		t.Fatal("want error for missing reverse arc")
	}
}

func TestValidateCatchesBadWeight(t *testing.T) {
	g := &Graph{
		offsets: []int64{0, 1, 2},
		adj:     []int32{1, 0},
		weights: []float64{-1, -1},
		degree:  []float64{-1, -1},
		totalW:  -2,
	}
	if err := g.Validate(); err == nil {
		t.Fatal("want error for non-positive weight")
	}
}

func TestFromCSRChecked(t *testing.T) {
	// 0 -- 1 with weight 2, valid CSR.
	g, err := FromCSR([]int64{0, 1, 2}, []int32{1, 0}, []float64{2, 2}, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("m=%v", g.M())
	}
	// Broken symmetry must fail when checked.
	if _, err := FromCSR([]int64{0, 1, 1}, []int32{1}, []float64{1}, 2, true); err == nil {
		t.Fatal("want validation error")
	}
}

func TestComputeStatsTriangle(t *testing.T) {
	g := triangle(t)
	st := ComputeStats(g)
	if st.N != 3 || st.M != 4 {
		t.Fatalf("stats %+v", st)
	}
	if st.MaxDeg != 3 {
		t.Fatalf("MaxDeg=%d want 3", st.MaxDeg)
	}
	// degrees: 2, 2, 3 → mean 7/3
	if math.Abs(st.AvgDeg-7.0/3.0) > 1e-12 {
		t.Fatalf("AvgDeg=%v", st.AvgDeg)
	}
	if st.RSD <= 0 {
		t.Fatalf("RSD=%v want > 0", st.RSD)
	}
}

func TestComputeStatsRegularHasZeroRSD(t *testing.T) {
	// 4-cycle: all degrees 2.
	b := NewBuilder(4)
	for i := 0; i < 4; i++ {
		b.AddEdge(int32(i), int32((i+1)%4), 1)
	}
	st := ComputeStats(b.Build(2))
	if st.RSD != 0 {
		t.Fatalf("RSD=%v want 0", st.RSD)
	}
	if st.AvgDeg != 2 {
		t.Fatalf("AvgDeg=%v want 2", st.AvgDeg)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	st := ComputeStats(NewBuilder(0).Build(1))
	if st.N != 0 || st.M != 0 || st.MaxDeg != 0 {
		t.Fatalf("stats of empty graph: %+v", st)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{N: 1, M: 2, MaxDeg: 3, AvgDeg: 4, RSD: 5}.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

// Property: for arbitrary edge lists, the built graph is valid and total
// weight equals the sum of input weights (counting duplicates merged).
func TestBuildPropertyValid(t *testing.T) {
	f := func(raw []uint16, seed uint64) bool {
		if len(raw) == 0 {
			return true
		}
		rng := par.NewRNG(seed)
		n := int(raw[0]%200) + 1
		var edges []Edge
		var wantTotal float64
		for _, x := range raw {
			u, v := int32(int(x)%n), int32(rng.Intn(n))
			w := 1 + rng.Float64()
			edges = append(edges, Edge{U: u, V: v, W: w})
			if u == v {
				wantTotal += w
			} else {
				wantTotal += 2 * w
			}
		}
		g := FromEdges(n, edges, 4)
		if err := g.Validate(); err != nil {
			t.Logf("invalid: %v", err)
			return false
		}
		return math.Abs(g.TotalWeight()-wantTotal) < 1e-6*(1+wantTotal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
