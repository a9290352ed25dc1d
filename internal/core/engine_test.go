package core

import (
	"slices"
	"testing"

	"grappolo/internal/coloring"
	"grappolo/internal/generate"
	"grappolo/internal/graph"
)

// engineConfigs enumerates deterministic configurations (uncolored modes are
// schedule-independent at any worker count; colored/live-state modes only at
// one worker) used to pin Engine output against the one-shot path.
func engineConfigs() map[string]Options {
	colored := func(o Options) Options {
		o.Coloring = ColorMultiPhase
		o.ColoringVertexCutoff = 1
		return o
	}
	return map[string]Options{
		"baseline-w4":     Baseline(4),
		"vf-chain-w4":     withChain(withVF(Baseline(4))),
		"hierarchy-w4":    {Workers: 4, KeepHierarchy: true},
		"cpm-w4":          {Workers: 4, Objective: ObjCPM, CPMGamma: 0.5},
		"color-w1":        colored(Baseline(1)),
		"color-arc-w1":    withArcBalance(colored(Baseline(1))),
		"color-auto-w1":   colored(Options{Workers: 1, ColorBalance: BalanceAuto}),
		"color-vertex-w1": withBalanced(colored(Baseline(1))),
	}
}

func sameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if !slices.Equal(got.Membership, want.Membership) {
		t.Fatalf("%s: memberships differ", name)
	}
	if got.NumCommunities != want.NumCommunities || got.Modularity != want.Modularity {
		t.Fatalf("%s: nc=%d Q=%v, want nc=%d Q=%v",
			name, got.NumCommunities, got.Modularity, want.NumCommunities, want.Modularity)
	}
	if got.TotalIterations != want.TotalIterations || len(got.Phases) != len(want.Phases) {
		t.Fatalf("%s: iters=%d phases=%d, want iters=%d phases=%d",
			name, got.TotalIterations, len(got.Phases), want.TotalIterations, len(want.Phases))
	}
	if len(got.Levels) != len(want.Levels) {
		t.Fatalf("%s: %d hierarchy levels, want %d", name, len(got.Levels), len(want.Levels))
	}
	for l := range want.Levels {
		if !slices.Equal(got.Levels[l], want.Levels[l]) {
			t.Fatalf("%s: hierarchy level %d differs", name, l)
		}
	}
}

// TestEngineReuseMatchesFreshRun pins the tentpole guarantee: a warmed,
// reused Engine — including RunInto result recycling — is bit-identical to a
// cold core.Run for every deterministic configuration.
func TestEngineReuseMatchesFreshRun(t *testing.T) {
	for _, in := range []generate.Input{generate.CNR, generate.EuropeOSM} {
		g := generate.MustGenerate(in, generate.Small, 0, 4)
		for name, o := range engineConfigs() {
			want := Run(g, o)
			eng := NewEngine(o)
			var res *Result
			for rep := 0; rep < 3; rep++ {
				res = eng.RunInto(g, res)
				sameResult(t, string(in)+"/"+name, res, want)
			}
		}
	}
}

// TestEngineReuseAcrossShapes drags one Engine across differently-shaped
// graphs — growing, shrinking, growing again — and checks each run against a
// fresh one-shot run, pinning the grow-in-place paths of every pooled buffer.
func TestEngineReuseAcrossShapes(t *testing.T) {
	graphs := []*graph.Graph{
		generate.MustGenerate(generate.CNR, generate.Small, 0, 4),
		twoCliques(),
		generate.MustGenerate(generate.MG1, generate.Small, 0, 4),
		generate.MustGenerate(generate.CNR, generate.Small, 1, 4),
	}
	for name, o := range map[string]Options{
		"vf-w4":    withVF(Baseline(4)),
		"color-w1": {Workers: 1, Coloring: ColorMultiPhase, ColoringVertexCutoff: 1, ColorBalance: BalanceArcs},
	} {
		eng := NewEngine(o)
		var res *Result
		for gi, g := range graphs {
			want := Run(g, o)
			res = eng.RunInto(g, res)
			sameResult(t, name+"/graph", res, want)
			validatePartition(t, g, res, generate.Input("shape"), name)
			_ = gi
		}
	}
}

// TestEngineRunSteadyStateZeroAllocs is the full-pipeline extension of
// TestDecideSteadyStateZeroAllocs: once an Engine has seen a graph shape, a
// further RunInto over the same shape — coloring, rebalancing, every sweep,
// scoring, renumbering, node-size re-aggregation, and the coarse-graph
// rebuilds included — performs ZERO allocations. Scratch that survives only
// by being over-counted (a single make per phase, say) fails this exactly,
// which a loose "small constant" bound would miss. Single worker: the
// goroutine spawns of the parallel paths inherently allocate.
func TestEngineRunSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	rgg := generate.MustGenerate(generate.RGG, generate.Small, 0, 1)
	// VF merges no vertex of RGG Small; the europe rows coarsen with it.
	europe := generate.MustGenerate(generate.EuropeOSM, generate.Small, 0, 1)
	for name, row := range map[string]struct {
		g *graph.Graph
		o Options
	}{
		"baseline":  {rgg, Options{Workers: 1}},
		"hierarchy": {rgg, Options{Workers: 1, KeepHierarchy: true}},
		"vfcolor-arc": {rgg, Options{Workers: 1, VertexFollowing: true, VFChainCompression: true,
			Coloring: ColorMultiPhase, ColoringVertexCutoff: 1, ColorBalance: BalanceArcs}},
		"vfcolor-auto": {rgg, Options{Workers: 1, VertexFollowing: true,
			Coloring: ColorMultiPhase, ColoringVertexCutoff: 1, ColorBalance: BalanceAuto}},
		"cpm": {rgg, Options{Workers: 1, Objective: ObjCPM, CPMGamma: 0.5}},
		"cpm-color": {rgg, Options{Workers: 1, Objective: ObjCPM, CPMGamma: 0.5,
			Coloring: ColorMultiPhase, ColoringVertexCutoff: 1}},
		"plm": {rgg, PLM(1)},
		"vfcolor": {rgg, Options{Workers: 1, VertexFollowing: true,
			Coloring: ColorMultiPhase, ColoringVertexCutoff: 1}},
		"vfcolor-europe": {europe, Options{Workers: 1, VertexFollowing: true,
			Coloring: ColorMultiPhase, ColoringVertexCutoff: 1}},
		"vfchain-europe": {europe, Options{Workers: 1, VertexFollowing: true, VFChainCompression: true,
			Coloring: ColorMultiPhase, ColoringVertexCutoff: 1}},
	} {
		g, o := row.g, row.o
		eng := NewEngine(o)
		res := eng.Run(g)
		res = eng.RunInto(g, res) // second warm pass settles the arenas
		allocs := testing.AllocsPerRun(3, func() {
			res = eng.RunInto(g, res)
		})
		if allocs != 0 {
			t.Errorf("%s: warmed Engine.RunInto allocates %v times per run, want 0", name, allocs)
		}
		if res.NumCommunities <= 1 || res.Modularity <= 0 {
			t.Fatalf("%s: degenerate result nc=%d Q=%v", name, res.NumCommunities, res.Modularity)
		}
	}
}

// TestEngineRunAllocatesOnlyResult pins the Run (non-Into) contract: the
// warmed engine allocates only the Result and its slices.
func TestEngineRunAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 1)
	eng := NewEngine(Options{Workers: 1})
	res := eng.Run(g)
	res = eng.RunInto(g, res)
	// Per run: the Result struct, the membership slice, the Phases append
	// growth chain, and one score-trace append chain per phase. Anything
	// beyond that bound would be scratch escaping into the one-shot path.
	budget := float64(2 + len(res.Phases) + 2)
	for _, ph := range res.Phases {
		budget += float64(len(ph.Modularity) + 1)
	}
	allocs := testing.AllocsPerRun(3, func() {
		_ = eng.Run(g)
	})
	if allocs > budget {
		t.Fatalf("warmed Engine.Run allocates %v times per run, want <= %v (result-only)", allocs, budget)
	}
}

// TestBalanceAutoTracksSkew pins BalanceAutoArcRSD through its inputs: a
// first phase whose base coloring's ArcRSD lies above it runs exactly like
// forced arc rebalancing, one below it exactly like no rebalancing. Each
// input's side of the constant is checked first, so a changed constant or
// generator fails here rather than passing vacuously, and where the repair
// changes the run, the arc and off runs must differ, so the comparison can
// tell which one auto chose.
func TestBalanceAutoTracksSkew(t *testing.T) {
	cases := []struct {
		in    generate.Input
		above bool // base ArcRSD above BalanceAutoArcRSD
		split bool // arc rebalancing changes the run
	}{
		{generate.RGG, true, true},       // ArcRSD 0.666
		{generate.Channel, false, false}, // ArcRSD 0.000: the repair moves nothing
		// ArcRSD 0.434, and arc rebalancing changes its iteration count, so
		// this row fails if the constant drops below it.
		{generate.MG1, false, true},
	}
	for _, c := range cases {
		g := generate.MustGenerate(c.in, generate.Small, 0, 4)
		rsd := coloring.Parallel(g, 1).ComputeStatsOn(g).ArcRSD
		if rsd > BalanceAutoArcRSD != c.above {
			t.Fatalf("%s: base ArcRSD %.3f, want above %v: %v", c.in, rsd, BalanceAutoArcRSD, c.above)
		}
		run := func(b ColorBalance) *Result {
			return Run(g, Options{Workers: 1, Coloring: ColorMultiPhase, MaxPhases: 1, ColorBalance: b})
		}
		want, other := run(BalanceOff), run(BalanceArcs)
		if c.above {
			want, other = other, want
		}
		sameResult(t, string(c.in), run(BalanceAuto), want)
		if c.split && want.TotalIterations == other.TotalIterations && slices.Equal(want.Membership, other.Membership) {
			t.Fatalf("%s: arc and off runs agree, so auto's choice is not observed", c.in)
		}
	}
}

func BenchmarkEngineReuse(b *testing.B) {
	g := generate.MustGenerate(generate.RGG, generate.ScaleFromEnv(), 0, 0)
	o := BaselineVFColor(0)
	o.ColoringVertexCutoff = 512
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := NewEngine(o).Run(g)
			if res.Modularity <= 0 {
				b.Fatal("bad run")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng := NewEngine(o)
		var res *Result
		for i := 0; i < b.N; i++ {
			res = eng.RunInto(g, res)
			if res.Modularity <= 0 {
				b.Fatal("bad run")
			}
		}
	})
}
