package grappolo_test

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"grappolo"
	"grappolo/internal/analysis"
	"grappolo/internal/core"
	"grappolo/internal/generate"
)

// publicConfigs pairs a public functional-options configuration with the
// internal core.Options it must be equivalent to — the public-API mirror of
// core's engineConfigs (deterministic configurations only: uncolored modes
// at any worker count, colored modes at one worker).
func publicConfigs() map[string]struct {
	opts []grappolo.Option
	core core.Options
} {
	type cfg = struct {
		opts []grappolo.Option
		core core.Options
	}
	colored1 := core.Options{Workers: 1, Coloring: core.ColorMultiPhase, ColoringVertexCutoff: 1}
	withBal := func(o core.Options, b core.ColorBalance) core.Options { o.ColorBalance = b; return o }
	return map[string]cfg{
		"baseline-w4": {
			[]grappolo.Option{grappolo.Workers(4)},
			core.Options{Workers: 4}},
		"vf-chain-w4": {
			[]grappolo.Option{grappolo.Workers(4), grappolo.VFChains()},
			core.Options{Workers: 4, VertexFollowing: true, VFChainCompression: true}},
		"hierarchy-w4": {
			[]grappolo.Option{grappolo.Workers(4), grappolo.KeepHierarchy()},
			core.Options{Workers: 4, KeepHierarchy: true}},
		"cpm-w4": {
			[]grappolo.Option{grappolo.Workers(4), grappolo.CPM(0.5)},
			core.Options{Workers: 4, Objective: core.ObjCPM, CPMGamma: 0.5}},
		"color-w1": {
			[]grappolo.Option{grappolo.Workers(1), grappolo.Coloring(grappolo.Distance1), grappolo.ColoringCutoff(1)},
			colored1},
		"color-arc-w1": {
			[]grappolo.Option{grappolo.Workers(1), grappolo.Coloring(grappolo.Distance1), grappolo.ColoringCutoff(1), grappolo.Balance(grappolo.BalanceArcs)},
			withBal(colored1, core.BalanceArcs)},
		"color-auto-w1": {
			[]grappolo.Option{grappolo.Workers(1), grappolo.Coloring(grappolo.Distance1), grappolo.ColoringCutoff(1), grappolo.Balance(grappolo.BalanceAuto)},
			withBal(colored1, core.BalanceAuto)},
		"color-vertex-w1": {
			[]grappolo.Option{grappolo.Workers(1), grappolo.Coloring(grappolo.Distance1), grappolo.ColoringCutoff(1), grappolo.Balance(grappolo.BalanceVertices)},
			withBal(colored1, core.BalanceVertices)},
	}
}

func sameResult(t *testing.T, name string, got, want *grappolo.Result) {
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

// TestDetectorMatchesCoreRun is the public-API golden test mirroring
// core's TestEngineReuseMatchesFreshRun: for every deterministic public
// configuration, a reused Detector — including DetectInto result recycling —
// is bit-identical to a fresh one-shot core.Run with the equivalent
// internal options.
func TestDetectorMatchesCoreRun(t *testing.T) {
	ctx := context.Background()
	for _, in := range []generate.Input{generate.CNR, generate.EuropeOSM} {
		g := generate.MustGenerate(in, generate.Small, 0, 4)
		for name, cfg := range publicConfigs() {
			want := core.Run(g, cfg.core)
			det, err := grappolo.New(cfg.opts...)
			if err != nil {
				t.Fatalf("%s: New: %v", name, err)
			}
			var res *grappolo.Result
			for rep := 0; rep < 3; rep++ {
				res, err = det.DetectInto(ctx, g, res)
				if err != nil {
					t.Fatalf("%s: Detect: %v", name, err)
				}
				sameResult(t, string(in)+"/"+name, res, want)
			}
		}
	}
}

// TestDefaultColoringPolicy pins the default §6.1 policy of the headline
// configuration on a graph far below the paper's 100,000-vertex cutoff:
// with no ColoringCutoff, the first phase colors, the colored phases form a
// prefix, and only the gain test ends it. Every colored phase but the last
// gains at least the default colored threshold 1e-3 over the phase before,
// and the last colored phase, if uncolored phases follow, gains less.
func TestDefaultColoringPolicy(t *testing.T) {
	const coloredThreshold = 1e-3
	g := generate.MustGenerate(generate.EuropeOSM, generate.Small, 0, 1)
	res, err := grappolo.Detect(context.Background(), g,
		grappolo.VertexFollowing(), grappolo.Coloring(grappolo.Distance1), grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) == 0 || !res.Phases[0].Colored {
		t.Fatalf("first phase of a %d-vertex graph is not colored", g.N())
	}
	lastColored := 0
	for lastColored+1 < len(res.Phases) && res.Phases[lastColored+1].Colored {
		lastColored++
	}
	for i, ph := range res.Phases[lastColored+1:] {
		if ph.Colored {
			t.Fatalf("phase %d is colored after uncolored phase %d", lastColored+1+i, lastColored+1)
		}
	}
	finalQ := func(i int) float64 {
		trace := res.Phases[i].Modularity
		return trace[len(trace)-1]
	}
	for i := 1; i <= lastColored; i++ {
		gain := finalQ(i) - finalQ(i-1)
		if i < lastColored && gain < coloredThreshold {
			t.Errorf("colored phase %d gained %g < %g, yet phase %d is colored", i, gain, coloredThreshold, i+1)
		}
		if i == lastColored && lastColored+1 < len(res.Phases) && gain >= coloredThreshold {
			t.Errorf("last colored phase %d gained %g >= %g, yet phase %d is uncolored", i, gain, coloredThreshold, i+1)
		}
	}
	if lastColored < 2 {
		t.Fatalf("only %d colored phases; the gain test is not exercised", lastColored+1)
	}
}

// TestNewRejectsInvalidOptions pins the validation contract: every invalid
// value or combination is an error from New, never a silent correction.
func TestNewRejectsInvalidOptions(t *testing.T) {
	cases := map[string][]grappolo.Option{
		"negative-workers":      {grappolo.Workers(-1)},
		"cpm-zero-gamma":        {grappolo.CPM(0)},
		"cpm-negative-gamma":    {grappolo.CPM(-0.5)},
		"cpm-with-vf":           {grappolo.CPM(0.5), grappolo.VertexFollowing()},
		"cpm-with-vfchains":     {grappolo.VFChains(), grappolo.CPM(0.5)},
		"async-with-coloring":   {grappolo.Async(), grappolo.Coloring(grappolo.Distance1)},
		"firstphase-uncolored":  {grappolo.FirstPhaseColoring()},
		"zero-cutoff":           {grappolo.ColoringCutoff(0)},
		"negative-thresholds":   {grappolo.Thresholds(-1, 0)},
		"negative-resolution":   {grappolo.Resolution(-2)},
		"zero-resolution":       {grappolo.Resolution(0)},
		"unknown-coloring-kind": {grappolo.Coloring(grappolo.ColoringKind(99))},
		// Kinds 2 and 3 named two retired colorings: a caller built against
		// them gets an error, not a different coloring.
		"retired-coloring-kind-2": {grappolo.Coloring(grappolo.ColoringKind(2))},
		"retired-coloring-kind-3": {grappolo.Coloring(grappolo.ColoringKind(3))},
		"unknown-balance-mode":    {grappolo.Balance(grappolo.BalanceMode(99))},
		"nil-option":              {nil},
		// Options that only act with coloring enabled must not no-op.
		"balance-without-coloring": {grappolo.Balance(grappolo.BalanceArcs)},
		"cutoff-without-coloring":  {grappolo.ColoringCutoff(64)},
	}
	for name, opts := range cases {
		if _, err := grappolo.New(opts...); err == nil {
			t.Errorf("%s: New accepted invalid options", name)
		}
	}
	// The valid boundary: no options at all is the paper's baseline.
	if _, err := grappolo.New(); err != nil {
		t.Fatalf("New() with no options: %v", err)
	}
}

// TestDetectHonorsCancellation pins the context contract on a large RGG:
// a canceled Detect returns ctx.Err() promptly — far sooner than the full
// detection takes — and the Detector stays usable afterwards. An uncolored
// one-worker run polls between sweeps and chunks; a colored run at two
// workers sweeps its color sets on one worker team, whose remaining stages
// return at their first chunk once the run is canceled.
func TestDetectHonorsCancellation(t *testing.T) {
	g := generate.MustGenerate(generate.RGG, generate.Medium, 0, 0)
	for _, tc := range []struct {
		name string
		opts []grappolo.Option
	}{
		{"uncolored-w1", []grappolo.Option{grappolo.Workers(1)}},
		{"colored-w2", []grappolo.Option{grappolo.VertexFollowing(), grappolo.Coloring(grappolo.Distance1), grappolo.Workers(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			det, err := grappolo.New(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}

			// Reference timing: one full, uncancelled detection.
			start := time.Now()
			want, err := det.Detect(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			full := time.Since(start)

			// Pre-canceled context: no detection work at all.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if res, err := det.Detect(ctx, g); !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("pre-canceled Detect: res=%v err=%v, want nil, context.Canceled", res, err)
			}

			// Mid-run cancellation: cancel a twentieth of the way in; the run
			// must abort well before a full detection's worth of work.
			delay := full / 20
			if delay < time.Millisecond {
				delay = time.Millisecond
			}
			ctx, cancel = context.WithCancel(context.Background())
			timer := time.AfterFunc(delay, cancel)
			defer timer.Stop()
			start = time.Now()
			res, err := det.Detect(ctx, g)
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("canceled Detect: res=%v err=%v, want nil, context.Canceled", res, err)
			}
			if elapsed > full/2+delay {
				t.Fatalf("canceled Detect took %v (cancel after %v); full run takes %v — cancellation not prompt", elapsed, delay, full)
			}

			// The Detector (and its warmed scratch) survives cancellation.
			res, err = det.Detect(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "post-cancel", res, want)
		})
	}
}

// TestExamplesUseOnlyPublicAPI enforces the API-boundary invariant: no file
// under examples/ or cmd/grappolo may import any grappolo/internal/...
// package. The logic lives in the internalimport analyzer (also run by CI
// via cmd/grappolovet); this is a thin wrapper so a boundary break still
// fails plain `go test ./...`.
func TestExamplesUseOnlyPublicAPI(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	cfg := analysis.Config{Root: root, Module: "grappolo"}
	findings, err := analysis.Run(cfg, []*analysis.Analyzer{analysis.InternalImport},
		[]string{"./examples/...", "./cmd/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
