package core

import (
	"testing"

	"grappolo/internal/coloring"
	"grappolo/internal/generate"
)

// BenchmarkDecideSweep measures the flat-accumulator decide hot loop in
// isolation: one full uncolored sweep per op (every vertex runs decide
// against the previous iteration's snapshot; the skip state is reset so no
// vertex is skipped). This is the kernel the paper's Fig. 8 attributes most
// of the clustering time to.
func BenchmarkDecideSweep(b *testing.B) {
	g := generate.MustGenerate(generate.RGG, generate.ScaleFromEnv(), 0, 0)
	st := newPhaseState(g, Options{Resolution: 1}.Defaults(), nil, 0)
	b.ReportMetric(float64(g.N()), "vertices")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.skip.live = false
		st.sweepUncolored(0)
	}
}

// BenchmarkRebuild measures the coarsening step (§5.5, Fig. 9) with the
// accumulator + arena + prefix-sum CSR stitching implementation.
func BenchmarkRebuild(b *testing.B) {
	g := generate.MustGenerate(generate.RGG, generate.ScaleFromEnv(), 0, 0)
	res := Run(g, Options{MaxPhases: 1, Workers: 0}.Defaults())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rebuild(g, res.Membership, res.NumCommunities, 0)
	}
}

// TestDecideSteadyStateZeroAllocs pins the flat-accumulator invariant the
// refactor exists for: once a phase's scratch pool is allocated, running
// each sweep mode's decide kernel over every vertex allocates nothing.
func TestDecideSteadyStateZeroAllocs(t *testing.T) {
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 1)
	st := newPhaseState(g, Options{Resolution: 1}.Defaults(), nil, 1)
	copy(st.prev, st.curr)
	st.refreshAggregates(1)
	acc := st.scratch[0]
	n := g.N()
	for _, k := range []struct {
		name  string
		sweep func()
	}{
		{"decideSnap", func() {
			for i := 0; i < n; i++ {
				st.curr[i], _, _ = st.decideSnap(i, st.prev, acc)
			}
		}},
		{"decideLive", func() {
			for i := 0; i < n; i++ {
				st.curr[i], _ = st.decideLive(i, st.prev, acc)
			}
		}},
		{"decideAsync", func() {
			for i := 0; i < n; i++ {
				st.curr[i] = st.decideAsync(i, st.prev, acc)
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(20, k.sweep); allocs != 0 {
			t.Errorf("steady-state %s loop allocates: %v allocs per sweep over %d vertices, want 0", k.name, allocs, n)
		}
	}
}

// BenchmarkSweepUncolored times one uncolored sweep of Medium RGG that
// decides every vertex (the skip state is reset per op, so repeated sweeps
// of a settled state do the same work); BenchmarkPhaseUncolored times the
// sweeps of a phase, skips included.
func BenchmarkSweepUncolored(b *testing.B) {
	g := generate.MustGenerate(generate.RGG, generate.Medium, 0, 0)
	st := newPhaseState(g, Options{Resolution: 1}.Defaults(), nil, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.skip.live = false
		st.sweepUncolored(0)
	}
}

// BenchmarkPhaseUncolored times one full uncolored first phase from
// singletons: every sweep and the scoring that ends each iteration, until
// the gain falls below the default threshold. The channel mesh spends many
// low-gain iterations; RGG converges in a few dozen.
func BenchmarkPhaseUncolored(b *testing.B) {
	for _, in := range []generate.Input{generate.Channel, generate.RGG} {
		b.Run(string(in), func(b *testing.B) {
			g := generate.MustGenerate(in, generate.ScaleFromEnv(), 0, 0)
			o := Options{}.Defaults()
			eng := NewEngine(o)
			var stats PhaseStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, _, _ = eng.runPhase(g, o.FinalThreshold, nil, nil, stats.Modularity)
			}
			b.ReportMetric(float64(g.N()), "vertices")
			b.ReportMetric(float64(stats.Iterations), "iters")
		})
	}
}

func BenchmarkSweepColored(b *testing.B) {
	g := generate.MustGenerate(generate.RGG, generate.Medium, 0, 0)
	cs := coloring.Parallel(g, 0)
	st := newPhaseState(g, Options{Resolution: 1}.Defaults(), nil, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.sweepColored(cs.Sets, 0)
	}
}

func BenchmarkSweepAsyncPLM(b *testing.B) {
	g := generate.MustGenerate(generate.RGG, generate.Medium, 0, 0)
	st := newPhaseState(g, PLM(0), nil, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.sweepAsync(0)
	}
}

func BenchmarkRebuildParallel(b *testing.B) {
	g := generate.MustGenerate(generate.RGG, generate.Medium, 0, 0)
	res := Run(g, Options{MaxPhases: 1, Workers: 0}.Defaults())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rebuild(g, res.Membership, res.NumCommunities, 0)
	}
}

func BenchmarkVertexFollow(b *testing.B) {
	g := generate.MustGenerate(generate.EuropeOSM, generate.Medium, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = vertexFollow(g, 0, false)
	}
}

func BenchmarkModularityParallelKernel(b *testing.B) {
	g := generate.MustGenerate(generate.RGG, generate.Medium, 0, 0)
	res := Run(g, Options{Workers: 0}.Defaults())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Modularity(g, res.Membership, 1, 0)
	}
}

func BenchmarkFullRunVFColorMedium(b *testing.B) {
	g := generate.MustGenerate(generate.LiveJournal, generate.Medium, 0, 0)
	o := BaselineVFColor(0)
	o.ColoringVertexCutoff = 512
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(g, o)
		if res.Modularity <= 0 {
			b.Fatal("bad run")
		}
	}
}

func BenchmarkAnalyzeCommunities(b *testing.B) {
	g := generate.MustGenerate(generate.MG2, generate.Medium, 0, 0)
	res := Run(g, Options{Workers: 0}.Defaults())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeCommunities(g, res.Membership, 0); err != nil {
			b.Fatal(err)
		}
	}
}
