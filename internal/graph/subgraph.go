package graph

import "fmt"

// InducedSubgraph extracts the subgraph induced by the given vertex set and
// returns it with the old→new id mapping (-1 for excluded vertices).
// Duplicate ids in vertices are rejected. Edge weights, including
// self-loops, carry over. Typical use: pull one detected community out for
// closer inspection or recursive clustering.
func InducedSubgraph(g *Graph, vertices []int32, p int) (*Graph, []int32, error) {
	n := g.N()
	remap := make([]int32, n)
	for i := range remap {
		remap[i] = -1
	}
	for t, v := range vertices {
		if v < 0 || int(v) >= n {
			return nil, nil, fmt.Errorf("graph: vertex %d out of range [0,%d)", v, n)
		}
		if remap[v] != -1 {
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d in selection", v)
		}
		remap[v] = int32(t)
	}
	b := NewBuilder(len(vertices))
	for _, v := range vertices {
		nbr, wts := g.Neighbors(int(v))
		for t, j := range nbr {
			if remap[j] >= 0 && (int(j) > int(v) || int(j) == int(v)) {
				b.AddEdge(remap[v], remap[j], wts[t])
			}
		}
	}
	return b.Build(p), remap, nil
}
