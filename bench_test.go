// Benchmarks reproducing every table and figure of the paper's evaluation
// (§6) on the synthetic input suite. Each benchmark prints the same rows or
// series the paper reports; run with
//
//	go test -bench=. -benchmem
//
// or a specific experiment, e.g.
//
//	go test -bench=BenchmarkTable2 -benchtime=1x -v
//
// Benchmarks default to the Medium input scale so a full sweep finishes in
// minutes on a laptop; set -scale via GRAPPOLO_BENCH_SCALE=small|medium|large.
package grappolo_test

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"grappolo/internal/core"
	"grappolo/internal/dynamic"
	"grappolo/internal/generate"
	"grappolo/internal/graph"
	"grappolo/internal/harness"
)

func benchScale() generate.Scale { return generate.ScaleFromEnv() }

func benchOpts() harness.Options {
	return harness.Options{
		Scale:          benchScale(),
		Workers:        runtime.GOMAXPROCS(0),
		ColoringCutoff: 512,
	}.Defaults()
}

// out returns the report sink: stdout on the first benchmark iteration,
// discard afterwards (so -benchtime=Nx does not duplicate tables).
func out(b *testing.B, i int) io.Writer {
	b.Helper()
	if i == 0 {
		return os.Stdout
	}
	return io.Discard
}

// workerSweep mirrors the paper's 1..32 thread sweep: powers of two up to
// the host's core count, minimum 1..8 so the concurrent paths are exercised
// even on small hosts (curves flatten at the physical core count).
func workerSweep() []int {
	max := runtime.GOMAXPROCS(0)
	if max < 8 {
		max = 8
	}
	var ws []int
	for w := 1; w <= max; w *= 2 {
		ws = append(ws, w)
	}
	if ws[len(ws)-1] != max {
		ws = append(ws, max)
	}
	return ws
}

// BenchmarkTable1_InputStats regenerates Table 1 (input statistics).
func BenchmarkTable1_InputStats(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table1(o)
		if err != nil {
			b.Fatal(err)
		}
		harness.WriteTable1(out(b, i), rows)
	}
}

// BenchmarkTable2_SerialVsParallel regenerates Table 2 (final modularity
// and runtime, parallel vs serial, with speedups).
func BenchmarkTable2_SerialVsParallel(b *testing.B) {
	o := benchOpts()
	inputs := generate.Suite()
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table2(o, inputs)
		if err != nil {
			b.Fatal(err)
		}
		harness.WriteTable2(out(b, i), rows, o.Workers)
	}
}

// BenchmarkTable3_Quality regenerates Table 3 (SP/SE/OQ/Rand of parallel
// vs serial composition on CNR and MG1).
func BenchmarkTable3_Quality(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table3(o, []generate.Input{generate.CNR, generate.MG1})
		if err != nil {
			b.Fatal(err)
		}
		harness.WriteTable3(out(b, i), rows)
	}
}

// BenchmarkTable4_MultiPhaseColoring regenerates Table 4 (first-phase vs
// multi-phase coloring; the paper uses 2 threads).
func BenchmarkTable4_MultiPhaseColoring(b *testing.B) {
	o := benchOpts()
	o.Workers = 2
	inputs := []generate.Input{generate.Channel, generate.UK2002, generate.EuropeOSM, generate.MG2}
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table4(o, inputs, 3)
		if err != nil {
			b.Fatal(err)
		}
		harness.WriteTable4(out(b, i), rows)
	}
}

// BenchmarkTable5_Threshold regenerates Table 5 (colored-phase threshold
// 1e-4 vs 1e-2 across nine inputs).
func BenchmarkTable5_Threshold(b *testing.B) {
	o := benchOpts()
	inputs := []generate.Input{
		generate.CNR, generate.CoPapers, generate.Channel, generate.EuropeOSM,
		generate.MG1, generate.RGG, generate.UK2002, generate.NLPKKT, generate.MG2,
	}
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table5(o, inputs, 2)
		if err != nil {
			b.Fatal(err)
		}
		harness.WriteTable5(out(b, i), rows)
	}
}

// BenchmarkFig3to6_Trajectories regenerates the modularity-vs-iteration
// curves (left columns of Figs. 3–6) for all inputs and schemes.
func BenchmarkFig3to6_Trajectories(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		sets, err := harness.Trajectories(o, generate.Suite(), harness.AllSchemes())
		if err != nil {
			b.Fatal(err)
		}
		harness.WriteTrajectories(out(b, i), sets)
	}
}

// BenchmarkFig3to6_Runtime regenerates the runtime-vs-threads curves
// (right columns of Figs. 3–6) with baseline+VF+Color.
func BenchmarkFig3to6_Runtime(b *testing.B) {
	o := benchOpts()
	ws := workerSweep()
	for i := 0; i < b.N; i++ {
		w := out(b, i)
		fmt.Fprintln(w, "Figs 3-6 (right): runtime vs workers")
		for _, in := range generate.Suite() {
			curve, err := harness.Scaling(o, in, harness.BaselineVFColor, ws, false)
			if err != nil {
				b.Fatal(err)
			}
			harness.WriteScaling(w, curve)
		}
	}
}

// BenchmarkFig7_Speedup regenerates the relative and absolute speedup
// curves of Fig. 7 on four representative inputs.
func BenchmarkFig7_Speedup(b *testing.B) {
	o := benchOpts()
	ws := workerSweep()
	inputs := []generate.Input{generate.RGG, generate.MG1, generate.LiveJournal, generate.CNR}
	for i := 0; i < b.N; i++ {
		w := out(b, i)
		fmt.Fprintln(w, "Fig 7: relative and absolute speedups (baseline+vf+color)")
		for _, in := range inputs {
			curve, err := harness.Scaling(o, in, harness.BaselineVFColor, ws, true)
			if err != nil {
				b.Fatal(err)
			}
			harness.WriteScaling(w, curve)
		}
	}
}

// BenchmarkFig8_Breakdown regenerates the runtime-breakdown stacks of
// Fig. 8 (coloring / clustering / rebuild) on the paper's four
// representative inputs.
func BenchmarkFig8_Breakdown(b *testing.B) {
	o := benchOpts()
	ws := workerSweep()
	inputs := []generate.Input{generate.RGG, generate.MG2, generate.EuropeOSM, generate.NLPKKT}
	for i := 0; i < b.N; i++ {
		w := out(b, i)
		for _, in := range inputs {
			pts, err := harness.BreakdownSweep(o, in, ws)
			if err != nil {
				b.Fatal(err)
			}
			harness.WriteBreakdown(w, in, pts)
		}
	}
}

// BenchmarkFig9_RebuildScaling regenerates the graph-rebuild speedup
// curves of Fig. 9.
func BenchmarkFig9_RebuildScaling(b *testing.B) {
	o := benchOpts()
	ws := workerSweep()
	inputs := []generate.Input{generate.RGG, generate.MG2, generate.EuropeOSM, generate.NLPKKT}
	for i := 0; i < b.N; i++ {
		w := out(b, i)
		fmt.Fprintln(w, "Fig 9: rebuild speedup vs workers")
		for _, in := range inputs {
			curve, err := harness.Scaling(o, in, harness.BaselineVFColor, ws, false)
			if err != nil {
				b.Fatal(err)
			}
			sp := curve.RebuildSpeedups()
			fmt.Fprintf(w, "%s:", in)
			for t, p := range curve.Points {
				fmt.Fprintf(w, " %d:%.2fx", p.Workers, sp[t])
			}
			fmt.Fprintln(w)
		}
	}
}

// BenchmarkFig10_Profiles regenerates the performance profiles of Fig. 10
// (modularity and runtime, all schemes, nine inputs).
func BenchmarkFig10_Profiles(b *testing.B) {
	o := benchOpts()
	inputs := []generate.Input{
		generate.CNR, generate.CoPapers, generate.Channel, generate.LiveJournal,
		generate.MG1, generate.RGG, generate.UK2002, generate.NLPKKT, generate.MG2,
	}
	for i := 0; i < b.N; i++ {
		w := out(b, i)
		mod, rt, err := harness.Profiles(o, inputs)
		if err != nil {
			b.Fatal(err)
		}
		harness.WriteProfiles(w, "modularity", mod)
		harness.WriteProfiles(w, "runtime", rt)
	}
}

// BenchmarkSec7_RelatedWorkPLM regenerates the §7 related-work comparison:
// baseline+VF+Color vs the PLM emulation on the paper's three common inputs.
func BenchmarkSec7_RelatedWorkPLM(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, err := harness.RelatedWork(o, nil)
		if err != nil {
			b.Fatal(err)
		}
		harness.WriteRelatedWork(out(b, i), rows)
	}
}

// --- Ablation benches for the design choices the paper calls out ---

// BenchmarkAblation_ColorBalance measures the balanced-coloring fix the
// paper proposes for skewed color-set sizes (uk-2002 discussion, §6.2).
func BenchmarkAblation_ColorBalance(b *testing.B) {
	g := generate.MustGenerate(generate.UK2002, benchScale(), 0, 0)
	for _, mode := range []string{"plain", "balanced"} {
		b.Run(mode, func(b *testing.B) {
			o := core.BaselineVFColor(runtime.GOMAXPROCS(0))
			o.ColoringVertexCutoff = 512
			if mode == "balanced" {
				o.ColorBalance = core.BalanceVertices
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := core.Run(g, o)
				if res.Modularity <= 0 {
					b.Fatal("bad run")
				}
			}
		})
	}
}

// BenchmarkAblation_VFChainCompression measures the §5.3 chain-compression
// extension against plain VF on the road network where it matters.
func BenchmarkAblation_VFChainCompression(b *testing.B) {
	g := generate.MustGenerate(generate.EuropeOSM, benchScale(), 0, 0)
	for _, mode := range []string{"vf", "vf+chain"} {
		b.Run(mode, func(b *testing.B) {
			o := core.BaselineVF(runtime.GOMAXPROCS(0))
			o.VFChainCompression = mode == "vf+chain"
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := core.Run(g, o)
				if res.Modularity <= 0 {
					b.Fatal("bad run")
				}
			}
		})
	}
}

// BenchmarkAblation_MinLabel quantifies the minimum-label heuristic's
// effect (§5.1) on the baseline variant.
func BenchmarkAblation_MinLabel(b *testing.B) {
	g := generate.MustGenerate(generate.CNR, benchScale(), 0, 0)
	for _, mode := range []string{"minlabel", "disabled"} {
		b.Run(mode, func(b *testing.B) {
			o := core.Baseline(runtime.GOMAXPROCS(0))
			o.DisableMinLabel = mode == "disabled"
			b.ResetTimer()
			var lastQ float64
			for i := 0; i < b.N; i++ {
				lastQ = core.Run(g, o).Modularity
			}
			b.ReportMetric(lastQ, "finalQ")
		})
	}
}

// --- Kernel micro-benchmarks ---

// BenchmarkKernel_GraphBuild measures parallel CSR construction.
func BenchmarkKernel_GraphBuild(b *testing.B) {
	g := generate.MustGenerate(generate.RGG, benchScale(), 0, 0)
	var edges []graph.Edge
	for i := 0; i < g.N(); i++ {
		nbr, wts := g.Neighbors(i)
		for t, j := range nbr {
			if int(j) >= i {
				edges = append(edges, graph.Edge{U: int32(i), V: j, W: wts[t]})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gg := graph.FromEdges(g.N(), edges, 0)
		if gg.N() != g.N() {
			b.Fatal("bad build")
		}
	}
}

// BenchmarkStreaming_IncrementalVsScratch measures the dynamic maintainer
// absorbing a batch of new edges versus re-detecting from scratch (the
// future-work item (i) economics).
func BenchmarkStreaming_IncrementalVsScratch(b *testing.B) {
	full := generate.MustGenerate(generate.LiveJournal, benchScale(), 0, 0)
	var initial, stream []graph.Edge
	for u := 0; u < full.N(); u++ {
		nbr, wts := full.Neighbors(u)
		for t, v := range nbr {
			if int32(u) > v {
				continue
			}
			e := graph.Edge{U: int32(u), V: v, W: wts[t]}
			if (u+int(v))%10 < 9 {
				initial = append(initial, e)
			} else {
				stream = append(stream, e)
			}
		}
	}
	fullOpts := core.BaselineVFColor(runtime.GOMAXPROCS(0))
	fullOpts.ColoringVertexCutoff = 512

	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			gb := graph.NewBuilder(full.N())
			gb.AddEdges(initial)
			m := dynamic.New(gb.Build(0), dynamic.Options{
				BatchSize: 4096, RefreshFraction: 0.5, Full: fullOpts,
			})
			b.StartTimer()
			for _, e := range stream {
				if err := m.AddEdge(e.U, e.V, e.W); err != nil {
					b.Fatal(err)
				}
			}
			m.Flush()
		}
	})
	b.Run("scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := core.Run(full, fullOpts)
			if res.Modularity <= 0 {
				b.Fatal("bad run")
			}
		}
	})
}

// BenchmarkKernel_OnePhase measures a single uncolored phase on the
// largest suite input.
func BenchmarkKernel_OnePhase(b *testing.B) {
	g := generate.MustGenerate(generate.Friendster, benchScale(), 0, 0)
	o := core.Baseline(runtime.GOMAXPROCS(0))
	o.MaxPhases = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Run(g, o)
		if res.NumCommunities == 0 {
			b.Fatal("no communities")
		}
	}
}
