// Quickstart: build a small graph, run parallel Louvain through the public
// grappolo API, print communities.
//
// The graph is Zachary's karate club (34 vertices, 78 edges), the canonical
// community-detection example: a university karate club that split into two
// factions. Louvain typically finds 4 sub-communities nested within the two
// factions, with modularity ≈ 0.41.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"sort"

	"grappolo"
)

// karateEdges is the edge list of Zachary's karate club (0-based ids).
var karateEdges = [][2]int32{
	{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7}, {0, 8}, {0, 10},
	{0, 11}, {0, 12}, {0, 13}, {0, 17}, {0, 19}, {0, 21}, {0, 31}, {1, 2},
	{1, 3}, {1, 7}, {1, 13}, {1, 17}, {1, 19}, {1, 21}, {1, 30}, {2, 3},
	{2, 7}, {2, 8}, {2, 9}, {2, 13}, {2, 27}, {2, 28}, {2, 32}, {3, 7},
	{3, 12}, {3, 13}, {4, 6}, {4, 10}, {5, 6}, {5, 10}, {5, 16}, {6, 16},
	{8, 30}, {8, 32}, {8, 33}, {9, 33}, {13, 33}, {14, 32}, {14, 33},
	{15, 32}, {15, 33}, {18, 32}, {18, 33}, {19, 33}, {20, 32}, {20, 33},
	{22, 32}, {22, 33}, {23, 25}, {23, 27}, {23, 29}, {23, 32}, {23, 33},
	{24, 25}, {24, 27}, {24, 31}, {25, 31}, {26, 29}, {26, 33}, {27, 33},
	{28, 31}, {28, 33}, {29, 32}, {29, 33}, {30, 32}, {30, 33}, {31, 32},
	{31, 33}, {32, 33},
}

func main() {
	// 1. Build the graph. Unweighted edges default to weight 1.
	b := grappolo.NewBuilder(34)
	for _, e := range karateEdges {
		b.AddEdge(e[0], e[1], 1)
	}
	g := b.Build(0) // 0 workers = all CPUs

	// 2. Create a Detector with the paper's headline configuration:
	//    minimum-label heuristic + vertex following + multi-phase coloring.
	//    New validates the whole configuration and returns an error for
	//    invalid combinations instead of silently correcting them.
	det, err := grappolo.New(
		grappolo.VertexFollowing(),
		grappolo.Coloring(grappolo.Distance1),
	)
	if err != nil {
		panic(err)
	}

	// 3. Detect. The context threads cancellation into the pipeline; a
	//    server would pass its request context here.
	res, err := det.Detect(context.Background(), g)
	if err != nil {
		panic(err)
	}

	// 4. Report.
	fmt.Printf("karate club: %d vertices, %d edges\n", g.N(), g.EdgeCount())
	fmt.Printf("communities: %d, modularity: %.4f, iterations: %d, phases: %d\n",
		res.NumCommunities, res.Modularity, res.TotalIterations, len(res.Phases))

	groups := make(map[int32][]int)
	for v, c := range res.Membership {
		groups[c] = append(groups[c], v)
	}
	ids := make([]int32, 0, len(groups))
	for c := range groups {
		ids = append(ids, c)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, c := range ids {
		fmt.Printf("  community %d: %v\n", c, groups[c])
	}
}
