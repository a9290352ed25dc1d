package graph

import (
	"testing"
)

func TestInducedSubgraphTriangle(t *testing.T) {
	// 4-vertex graph: triangle 0-1-2 plus pendant 3, extract the triangle.
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(0, 2, 3)
	b.AddEdge(2, 3, 4)
	b.AddEdge(1, 1, 5)
	g := b.Build(2)
	sub, remap, err := InducedSubgraph(g, []int32{0, 1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || sub.EdgeCount() != 4 { // 3 triangle edges + self-loop
		t.Fatalf("n=%d m=%d", sub.N(), sub.EdgeCount())
	}
	if w, ok := sub.EdgeWeight(int(remap[1]), int(remap[2])); !ok || w != 2 {
		t.Fatalf("edge 1-2 weight %v", w)
	}
	if sub.SelfLoopWeight(int(remap[1])) != 5 {
		t.Fatal("self-loop lost")
	}
	if remap[3] != -1 {
		t.Fatal("excluded vertex must map to -1")
	}
}

func TestInducedSubgraphErrors(t *testing.T) {
	g := triangle(t)
	if _, _, err := InducedSubgraph(g, []int32{0, 7}, 1); err == nil {
		t.Fatal("want out-of-range error")
	}
	if _, _, err := InducedSubgraph(g, []int32{0, 0}, 1); err == nil {
		t.Fatal("want duplicate error")
	}
	sub, _, err := InducedSubgraph(g, nil, 1)
	if err != nil || sub.N() != 0 {
		t.Fatalf("empty selection: %v", err)
	}
}
