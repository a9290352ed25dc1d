// Metagenomics example: the paper's MG1/MG2 inputs are protein-sequence
// homology graphs from ocean metagenomics (built with pGraph [16]) where
// communities correspond to protein families — many dense clusters with
// sparse cross-links and modularity ≈ 0.97. This example reproduces that
// workload with the SBM analog, clusters it with all three parallel
// variants through the public API, and scores each against the planted
// protein families using the Table 3 measures.
//
// Run with: go run ./examples/metagenomics
package main

import (
	"context"
	"fmt"
	"time"

	"grappolo"
	"grappolo/generate"
	"grappolo/quality"
)

func main() {
	// Power-law family sizes mimic real protein family distributions.
	sizes := generate.PowerLawCommunitySizes(150, 20, 400, 2.2, 42)
	g, families := generate.SBM(generate.SBMConfig{
		Communities: sizes,
		IntraDegree: 24,   // dense homology within a family
		CrossFrac:   0.04, // rare cross-family similarity hits
	}, 42, 0)
	fmt.Printf("metagenomics analog: %d proteins, %d similarity edges, %d planted families\n",
		g.N(), g.EdgeCount(), len(sizes))

	variants := []struct {
		name string
		opts []grappolo.Option
	}{
		{"baseline", nil},
		{"baseline+vf", []grappolo.Option{grappolo.VertexFollowing()}},
		{"baseline+vf+color", []grappolo.Option{
			grappolo.VertexFollowing(),
			grappolo.Coloring(grappolo.Distance1),
		}},
	}
	ctx := context.Background()
	for _, v := range variants {
		det, err := grappolo.New(v.opts...)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		res, err := det.Detect(ctx, g)
		if err != nil {
			panic(err)
		}
		elapsed := time.Since(start)
		pc, err := quality.ComparePartitions(families, res.Membership)
		if err != nil {
			panic(err)
		}
		m := pc.Derive()
		fmt.Printf("%-18s Q=%.4f families=%d time=%-10s %s\n",
			v.name, res.Modularity, res.NumCommunities, elapsed.Round(time.Millisecond), m)
	}
}
