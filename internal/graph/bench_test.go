package graph

import (
	"cmp"
	"slices"
	"testing"

	"grappolo/internal/par"
)

func benchEdges(n, m int, seed uint64) []Edge {
	rng := par.NewRNG(seed)
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{
			U: int32(rng.Intn(n)), V: int32(rng.Intn(n)), W: 1,
		}
	}
	return edges
}

func BenchmarkFromEdgesSerial(b *testing.B) {
	const n, m = 50000, 400000
	edges := benchEdges(n, m, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := FromEdges(n, edges, 1)
		if g.N() != n {
			b.Fatal("bad build")
		}
	}
}

func BenchmarkFromEdgesParallel(b *testing.B) {
	const n, m = 50000, 400000
	edges := benchEdges(n, m, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := FromEdges(n, edges, 0)
		if g.N() != n {
			b.Fatal("bad build")
		}
	}
}

// BenchmarkFromEdgesOrdered builds from the same edges in the order
// WriteEdgeList writes a graph's edges: each edge once with U <= V, sorted
// by (U, V). Every row then arrives sorted.
func BenchmarkFromEdgesOrdered(b *testing.B) {
	const n, m = 50000, 400000
	edges := benchEdges(n, m, 1)
	for i, e := range edges {
		if e.U > e.V {
			edges[i].U, edges[i].V = e.V, e.U
		}
	}
	slices.SortFunc(edges, func(x, y Edge) int {
		return cmp.Or(cmp.Compare(x.U, y.U), cmp.Compare(x.V, y.V))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := FromEdges(n, edges, 0)
		if g.N() != n {
			b.Fatal("bad build")
		}
	}
}

func BenchmarkNeighborScan(b *testing.B) {
	g := FromEdges(20000, benchEdges(20000, 200000, 2), 0)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for v := 0; v < g.N(); v++ {
			_, wts := g.Neighbors(v)
			for _, w := range wts {
				sink += w
			}
		}
	}
	_ = sink
}

func BenchmarkComputeStats(b *testing.B) {
	g := FromEdges(50000, benchEdges(50000, 400000, 3), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ComputeStats(g)
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	g := FromEdges(50000, benchEdges(50000, 200000, 4), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ConnectedComponents(g)
	}
}
