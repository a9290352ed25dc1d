// Road-network example: the paper's Europe-osm input is the stress case for
// the vertex-following heuristic (§6.2): road graphs have average degree ≈ 2
// with long chains and many single-degree spokes, so VF shrinks the first
// phase dramatically — but can also prolong convergence by keeping hubs in
// play. This example reproduces that trade-off and shows the §5.3
// chain-compression extension recovering the balance.
//
// Run with: go run ./examples/roadnetwork
package main

import (
	"context"
	"fmt"
	"time"

	"grappolo"
	"grappolo/generate"
)

func main() {
	g := generate.MustGenerate(generate.EuropeOSM, generate.Medium, 0, 0)
	st := grappolo.ComputeGraphStats(g)
	single := 0
	for i := 0; i < g.N(); i++ {
		if g.OutDegree(i) == 1 {
			single++
		}
	}
	fmt.Printf("road network: %s\n", st)
	fmt.Printf("single-degree vertices: %d (%.1f%%)\n\n", single, 100*float64(single)/float64(st.N))

	variants := []struct {
		name string
		opts []grappolo.Option
	}{
		{"baseline (no VF)", nil},
		{"baseline+vf", []grappolo.Option{grappolo.VertexFollowing()}},
		{"baseline+vf+chain", []grappolo.Option{grappolo.VFChains()}},
		{"baseline+vf+color", []grappolo.Option{
			grappolo.VertexFollowing(),
			grappolo.Coloring(grappolo.Distance1),
		}},
	}
	ctx := context.Background()
	fmt.Printf("%-20s %10s %8s %8s %14s %14s\n",
		"variant", "Q", "iters", "phase1-n", "vf-time", "total-time")
	for _, v := range variants {
		start := time.Now()
		res, err := grappolo.Detect(ctx, g, v.opts...)
		if err != nil {
			panic(err)
		}
		elapsed := time.Since(start)
		phase1 := 0
		if len(res.Phases) > 0 {
			phase1 = res.Phases[0].VertexCount
		}
		fmt.Printf("%-20s %10.4f %8d %8d %14s %14s\n",
			v.name, res.Modularity, res.TotalIterations, phase1,
			res.Timing.VF.Round(time.Microsecond), elapsed.Round(time.Millisecond))
	}
}
