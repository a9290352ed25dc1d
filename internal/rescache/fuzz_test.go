package rescache

import (
	"slices"
	"testing"

	"grappolo/internal/graph"
)

// edgesOf lists g's undirected edges, each once (u <= v).
func edgesOf(g *graph.Graph) []graph.Edge {
	var out []graph.Edge
	for u := 0; u < g.N(); u++ {
		adj, w := g.Neighbors(u)
		for t, v := range adj {
			if int32(u) <= v {
				out = append(out, graph.Edge{U: int32(u), V: v, W: w[t]})
			}
		}
	}
	return out
}

// checkDiff diffs base against next and, when the diff is routable, checks
// that it fits the budget and that base plus the returned edges builds
// next's exact CSR. It reports whether the diff was routable.
func checkDiff(t *testing.T, name string, base, next *graph.Graph, budget int, buf []graph.Edge) bool {
	t.Helper()
	delta, ok := DiffEdges(base, next, budget, buf)
	if !ok {
		return false
	}
	if len(delta) > budget {
		t.Fatalf("%s: %d edits over budget %d", name, len(delta), budget)
	}
	b := graph.NewBuilder(next.N())
	b.AddEdges(edgesOf(base))
	b.AddEdges(delta)
	got := b.Build(1)
	if got.N() != next.N() || !slices.Equal(got.ArcOffsets(), next.ArcOffsets()) {
		t.Fatalf("%s: base plus %v has n=%d, %d arcs; next has n=%d, %d arcs",
			name, delta, got.N(), got.ArcCount(), next.N(), next.ArcCount())
	}
	for i := 0; i < next.N(); i++ {
		ga, gw := got.Neighbors(i)
		na, nw := next.Neighbors(i)
		if !slices.Equal(ga, na) || !slices.Equal(gw, nw) {
			t.Fatalf("%s: base plus %v gives row %d = %v %v, next has %v %v", name, delta, i, ga, gw, na, nw)
		}
	}
	return true
}

// FuzzDiffEdges decodes a small base edge list with integer weights and a
// list of insertions, which may repeat a base pair (a weight increase), add
// self-loops or grow the vertex count, and diffs base against base plus
// the insertions, against a graph of the insertions alone (unrelated to
// base), and back. Each inserted pair makes exactly one edit, so the first
// diff must be routable exactly when the distinct inserted pairs fit the
// budget; every routable diff must rebuild its target exactly; nothing may
// panic.
func FuzzDiffEdges(f *testing.F) {
	f.Add(uint8(6), uint8(2), uint8(3), []byte{0, 1, 1, 1, 2, 2, 3, 4, 0, 4, 5, 3, 2, 2, 1})
	f.Add(uint8(4), uint8(0), uint8(0), []byte{})
	f.Add(uint8(5), uint8(3), uint8(2), []byte{0, 1, 1, 2, 2, 0, 0, 1, 2, 6, 7, 1, 3, 3, 2})
	f.Add(uint8(10), uint8(1), uint8(4), []byte{0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 9, 9, 3, 1, 0, 1})
	f.Fuzz(func(t *testing.T, nRaw, budgetRaw, split uint8, data []byte) {
		n := int(nRaw)%12 + 1
		budget := int(budgetRaw) % 10
		var baseEdges, ins []graph.Edge
		pairs := map[[2]int32]bool{}
		for i := 0; i+2 < len(data) && i < 3*64; i += 3 {
			w := float64(data[i+2]%4 + 1)
			if i/3 < int(split) {
				baseEdges = append(baseEdges, graph.Edge{U: int32(int(data[i]) % n), V: int32(int(data[i+1]) % n), W: w})
				continue
			}
			// Insertions reach three ids past n.
			u, v := int32(int(data[i])%(n+3)), int32(int(data[i+1])%(n+3))
			ins = append(ins, graph.Edge{U: u, V: v, W: w})
			pairs[[2]int32{min(u, v), max(u, v)}] = true
		}
		bb := graph.NewBuilder(n)
		bb.AddEdges(baseEdges)
		base := bb.Build(1)
		bb.AddEdges(ins)
		next := bb.Build(1)
		ib := graph.NewBuilder(n)
		ib.AddEdges(ins)
		unrelated := ib.Build(1)

		buf := make([]graph.Edge, 0, 4)
		if ok := checkDiff(t, "base→next", base, next, budget, buf); ok != (len(pairs) <= budget) {
			t.Fatalf("base→next: routable=%v with %d distinct inserted pairs under budget %d", ok, len(pairs), budget)
		}
		checkDiff(t, "base→unrelated", base, unrelated, budget, buf)
		checkDiff(t, "unrelated→base", unrelated, base, budget, buf)
		checkDiff(t, "next→base", next, base, budget, buf)
	})
}
