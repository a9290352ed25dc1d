package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"grappolo"
	"grappolo/generate"
)

// edgeList is one generated input before it becomes a Graph: the benchmark
// builds every graph itself, through the public FromEdges, so graph
// construction is measured the same way on every workload.
type edgeList struct {
	name  string
	n     int
	edges []grappolo.Edge
}

// edgesOf lists g's undirected edges, each once (self-loops included).
func edgesOf(g *grappolo.Graph) []grappolo.Edge {
	out := make([]grappolo.Edge, 0, g.ArcCount()/2+g.SelfLoopCount())
	for i := 0; i < g.N(); i++ {
		nbr, w := g.Neighbors(i)
		for t, j := range nbr {
			if int(j) >= i {
				out = append(out, grappolo.Edge{U: int32(i), V: j, W: w[t]})
			}
		}
	}
	return out
}

// generateList generates instance variant of one analog of the paper's
// Table 1 (variant 0 is the generator's canonical instance) and returns its
// edge list.
//
// The benchmark's -seed does not pick the generator's seed. For the
// power-law community shapes the generator's seed changes vertex count and
// iteration count by up to half, so runs under different seeds would
// measure different amounts of work, and the spread between them would
// hide any change smaller than that. The graphs are fixed instances, and so
// is shard-suite's vertex relabeling, for the same reason. The seed drives
// the rest of what the benchmark randomizes: the order of detections in
// each pass, serve-hot's edits and request sequence, and serve-cold's
// request cycle.
func generateList(in generate.Input, sc generate.Scale, variant uint64, workers int) (edgeList, error) {
	g, err := generate.Generate(in, sc, variant, workers)
	if err != nil {
		return edgeList{}, fmt.Errorf("generate %s: %w", in, err)
	}
	return edgeList{name: string(in), n: g.N(), edges: edgesOf(g)}, nil
}

// permuted relabels the vertices of l by a seeded random permutation, so
// that id ranges no longer follow the generator's community layout.
func permuted(l edgeList, rng *rand.Rand) edgeList {
	perm := rng.Perm(l.n)
	edges := make([]grappolo.Edge, len(l.edges))
	for i, e := range l.edges {
		edges[i] = grappolo.Edge{U: int32(perm[e.U]), V: int32(perm[e.V]), W: e.W}
	}
	return edgeList{name: l.name, n: l.n, edges: edges}
}

// randomEdges returns k random non-loop edges of weight 1 on n vertices,
// to be inserted into a graph (an edge that already exists gains weight,
// which is also an insertion).
func randomEdges(n, k int, rng *rand.Rand) []grappolo.Edge {
	edges := make([]grappolo.Edge, 0, k)
	for len(edges) < k {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v {
			edges = append(edges, grappolo.Edge{U: int32(u), V: int32(v), W: 1})
		}
	}
	return edges
}

// buildGraphs builds every list with FromEdges and returns the graphs and
// the total build time in seconds.
func buildGraphs(lists []edgeList, workers int) ([]*grappolo.Graph, float64) {
	graphs := make([]*grappolo.Graph, len(lists))
	var total time.Duration
	for i, l := range lists {
		t := time.Now()
		graphs[i] = grappolo.FromEdges(l.n, l.edges, workers)
		total += time.Since(t)
	}
	return graphs, total.Seconds()
}

// strongHashMS times the first StrongHash call on each graph and returns
// the total in milliseconds. It must run before anything else hashes them.
func strongHashMS(graphs []*grappolo.Graph) float64 {
	var total time.Duration
	for _, g := range graphs {
		t := time.Now()
		g.StrongHash()
		total += time.Since(t)
	}
	return ms(total)
}

// newRand returns the seeded generator for one use (stream) of the seed.
func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }
