package coloring

import (
	"fmt"
	"testing"

	"grappolo/internal/generate"
)

func BenchmarkParallelColoringRGG(b *testing.B) {
	g := generate.MustGenerate(generate.RGG, generate.Medium, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := Parallel(g, 0)
		if c.NumColors < 2 {
			b.Fatal("bad coloring")
		}
	}
}

func BenchmarkParallelColoringSkewedWeb(b *testing.B) {
	g := generate.MustGenerate(generate.UK2002, generate.Medium, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := Parallel(g, 0)
		if c.NumColors < 2 {
			b.Fatal("bad coloring")
		}
	}
}

func BenchmarkGreedySerialRGG(b *testing.B) {
	g := generate.MustGenerate(generate.RGG, generate.Medium, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := Greedy(g)
		if c.NumColors < 2 {
			b.Fatal("bad coloring")
		}
	}
}

func BenchmarkBalancedRebalance(b *testing.B) {
	g := generate.MustGenerate(generate.UK2002, generate.Medium, 0, 0)
	base := Parallel(g, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Rebalance(g, base, RebalanceOptions{})
	}
}

// BenchmarkBalanced sweeps the rebalancer over both balance modes and worker
// counts on a high-color skewed hub graph — the workload the old serial
// O(n·k²) repair loop degenerated on. The worker sub-benchmarks document the
// speculative rounds' parallel scaling.
func BenchmarkBalanced(b *testing.B) {
	cfg := generate.HubCommunitiesConfig{
		Sizes:       generate.PowerLawCommunitySizes(400, 15, 1500, 1.8, 7),
		IntraDegree: 7,
		CrossFrac:   0.25,
		HubFanout:   32,
	}
	g, _ := generate.HubCommunities(cfg, 42, 0)
	base := Parallel(g, 0)
	for _, mode := range []struct {
		name string
		by   BalanceBy
	}{{"vertex", BalanceByVertices}, {"arc", BalanceByArcs}} {
		for _, p := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/p=%d", mode.name, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c := Rebalance(g, base, RebalanceOptions{Workers: p, By: mode.by})
					if c.NumColors > base.NumColors {
						b.Fatal("colors increased")
					}
				}
			})
		}
	}
}
