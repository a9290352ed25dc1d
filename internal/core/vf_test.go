package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"grappolo/internal/generate"
	"grappolo/internal/graph"
)

// sameCSR fails unless got and want have the same offsets, rows, weights,
// degrees and total weight, bit for bit.
func sameCSR(t *testing.T, name string, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || !slices.Equal(got.ArcOffsets(), want.ArcOffsets()) {
		t.Fatalf("%s: n=%d, %d arcs; want n=%d, %d arcs", name, got.N(), got.ArcCount(), want.N(), want.ArcCount())
	}
	for i := 0; i < want.N(); i++ {
		ga, gw := got.Neighbors(i)
		wa, ww := want.Neighbors(i)
		if !slices.Equal(ga, wa) || !sameBits(gw, ww) {
			t.Fatalf("%s: row %d is %v %v, want %v %v", name, i, ga, gw, wa, ww)
		}
		if math.Float64bits(got.Degree(i)) != math.Float64bits(want.Degree(i)) {
			t.Fatalf("%s: degree of %d is %v, want %v", name, i, got.Degree(i), want.Degree(i))
		}
	}
	if math.Float64bits(got.TotalWeight()) != math.Float64bits(want.TotalWeight()) {
		t.Fatalf("%s: total weight %v, want %v", name, got.TotalWeight(), want.TotalWeight())
	}
}

// checkVFFold runs VF rounds on g as vertexFollowChain does (one round in
// basic mode, up to 64 in chain mode) and checks every round's fold against
// the general rebuild of the same assignment. It returns the rounds run.
func checkVFFold(t *testing.T, name string, g *graph.Graph, workers int, chain bool) int {
	t.Helper()
	e := &Engine{}
	maxRounds := 1
	if chain {
		maxRounds = 64
	}
	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		membership, nc, ok := e.vertexFollow(g, workers, chain)
		if !ok {
			break
		}
		want := rebuild(g, membership, nc, workers)
		got := e.foldFollowers(g, membership, nc, workers)
		sameCSR(t, fmt.Sprintf("%s round %d", name, rounds), got, want)
		g = got
	}
	return rounds
}

// TestVFFoldMatchesRebuild pins VF's coarsening: folding followers into
// their roots' rows must build the graph the general rebuild builds from the
// same assignment, on the Small and Medium suites and on hand-built shapes,
// in basic and chain mode, every chain round, at one worker and four.
func TestVFFoldMatchesRebuild(t *testing.T) {
	shape := func(n int, edges ...[3]float64) *graph.Graph {
		b := graph.NewBuilder(n)
		for _, e := range edges {
			b.AddEdge(int32(e[0]), int32(e[1]), e[2])
		}
		return b.Build(1)
	}
	shapes := map[string]*graph.Graph{
		"pair": shape(2, [3]float64{0, 1, 1}),
		"star": shape(6, [3]float64{0, 1, 1}, [3]float64{0, 2, 2}, [3]float64{3, 0, 1},
			[3]float64{0, 4, 3}, [3]float64{5, 0, 1}),
		"path": shape(7, [3]float64{0, 1, 1}, [3]float64{1, 2, 2}, [3]float64{2, 3, 1},
			[3]float64{3, 4, 1}, [3]float64{4, 5, 3}, [3]float64{5, 6, 1}),
		// Vertex 1 has a self-loop and one neighbor (chain mode merges it),
		// and 4 hangs off the triangle 0-2-3 (both modes merge it).
		"loop-neighbor": shape(5, [3]float64{1, 1, 1}, [3]float64{0, 1, 5}, [3]float64{0, 2, 1},
			[3]float64{0, 3, 1}, [3]float64{2, 3, 1}, [3]float64{2, 4, 1}),
		// Isolated vertices 2 and 5, a loop-only vertex 6, and two pairs.
		"isolated": shape(8, [3]float64{0, 1, 2}, [3]float64{3, 4, 1}, [3]float64{6, 6, 1},
			[3]float64{7, 3, 1}),
	}
	analogs := map[string]*graph.Graph{}
	for scale, sname := range map[generate.Scale]string{generate.Small: "small", generate.Medium: "medium"} {
		for _, in := range generate.Suite() {
			analogs[string(in)+"/"+sname] = generate.MustGenerate(in, scale, 0, 4)
		}
	}
	for _, w := range []int{1, 4} {
		for _, chain := range []bool{false, true} {
			mode := fmt.Sprintf("w%d/chain=%v", w, chain)
			for name, g := range shapes {
				if checkVFFold(t, name+"/"+mode, g, w, chain) == 0 {
					t.Errorf("%s/%s: VF merged nothing", name, mode)
				}
			}
			for name, g := range analogs {
				checkVFFold(t, name+"/"+mode, g, w, chain)
			}
		}
	}
}
