package core

import (
	"context"
	"testing"

	"grappolo/internal/generate"
	"grappolo/internal/graph"
	"grappolo/internal/seq"
)

// twoTriangles returns two triangles joined by one bridge: 0-1-2 and 3-4-5.
func twoTriangles() *graph.Graph {
	b := graph.NewBuilder(6)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		b.AddEdge(e[0], e[1], 1)
	}
	return b.Build(1)
}

func identitySeed(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

func TestSweepSeededMatchesPhaseOnSingletons(t *testing.T) {
	// With an identity seed and nothing pinned, a seeded sweep is exactly an
	// uncolored first phase: same communities as the engine's own phase 1.
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 2)
	eng := NewEngine(Options{Workers: 2})
	out := make([]int32, g.N())
	iters, q, err := eng.SweepSeeded(context.Background(), g, identitySeed(g.N()), g.N(), out)
	if err != nil {
		t.Fatal(err)
	}
	if iters == 0 {
		t.Fatal("no iterations ran")
	}
	if got := seq.Modularity(g, out, 1); got != q {
		// The returned score is Eq. (3) of the returned assignment (scored
		// by the speculative sweep that read it); the serial kernel must
		// agree up to summation order.
		if diff := got - q; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("returned score %v != recomputed %v", q, got)
		}
	}
	if q <= 0 {
		t.Fatalf("degenerate sweep: Q=%v", q)
	}
}

func TestSweepSeededPinsSuffix(t *testing.T) {
	// Pin the second triangle: its vertices must keep their seeded labels
	// while the movable half still clusters — and may join a pinned label.
	g := twoTriangles()
	eng := NewEngine(Options{Workers: 1})
	seed := identitySeed(6)
	out := make([]int32, 6)
	if _, _, err := eng.SweepSeeded(context.Background(), g, seed, 3, out); err != nil {
		t.Fatal(err)
	}
	for v := 3; v < 6; v++ {
		if out[v] != seed[v] {
			t.Fatalf("pinned vertex %d moved: %d -> %d", v, seed[v], out[v])
		}
	}
	if out[0] != out[1] || out[1] != out[2] {
		t.Fatalf("movable triangle did not merge: %v", out[:3])
	}
}

func TestSweepSeededSeedLabelsRespected(t *testing.T) {
	// Seed the two triangles as two ready-made communities: the sweep has
	// nothing to improve, labels must be preserved verbatim.
	g := twoTriangles()
	eng := NewEngine(Options{Workers: 1})
	seed := []int32{0, 0, 0, 3, 3, 3}
	out := make([]int32, 6)
	_, q, err := eng.SweepSeeded(context.Background(), g, seed, 6, out)
	if err != nil {
		t.Fatal(err)
	}
	for v := range out {
		if out[v] != seed[v] {
			t.Fatalf("vertex %d left its seeded community: %d -> %d", v, seed[v], out[v])
		}
	}
	if want := seq.Modularity(g, seed, 1); q < want-1e-12 || q > want+1e-12 {
		t.Fatalf("score %v != %v", q, want)
	}
}

func TestSweepSeededDeterministicAcrossWorkers(t *testing.T) {
	g := generate.MustGenerate(generate.CNR, generate.Small, 1, 2)
	seed := identitySeed(g.N())
	var ref []int32
	for _, w := range []int{1, 2, 7} {
		eng := NewEngine(Options{Workers: w})
		out := make([]int32, g.N())
		if _, _, err := eng.SweepSeeded(context.Background(), g, seed, g.N(), out); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out
			continue
		}
		for v := range out {
			if out[v] != ref[v] {
				t.Fatalf("workers=%d: membership diverges at vertex %d", w, v)
			}
		}
	}
}

func TestSweepSeededValidation(t *testing.T) {
	g := twoTriangles()
	eng := NewEngine(Options{Workers: 1})
	out := make([]int32, 6)
	ctx := context.Background()
	if _, _, err := eng.SweepSeeded(ctx, g, make([]int32, 3), 6, out); err == nil {
		t.Fatal("short seed accepted")
	}
	if _, _, err := eng.SweepSeeded(ctx, g, identitySeed(6), 7, out); err == nil {
		t.Fatal("out-of-range pin boundary accepted")
	}
	if _, _, err := eng.SweepSeeded(ctx, g, []int32{0, 1, 2, 3, 4, 9}, 6, out); err == nil {
		t.Fatal("out-of-range seed label accepted")
	}
	if _, _, err := eng.SweepSeeded(ctx, g, identitySeed(6), 6, make([]int32, 2)); err == nil {
		t.Fatal("short out accepted")
	}
	cpm := NewEngine(Options{Workers: 1, Objective: ObjCPM, CPMGamma: 0.5})
	if _, _, err := cpm.SweepSeeded(ctx, g, identitySeed(6), 6, out); err == nil {
		t.Fatal("CPM engine accepted")
	}
}

func TestSweepSeededHonorsCancellation(t *testing.T) {
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 1)
	eng := NewEngine(Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := make([]int32, g.N())
	if _, _, err := eng.SweepSeeded(ctx, g, identitySeed(g.N()), g.N(), out); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSweepSeededSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 1)
	eng := NewEngine(Options{Workers: 1})
	seed := identitySeed(g.N())
	out := make([]int32, g.N())
	pin := g.N() * 3 / 4
	if _, _, err := eng.SweepSeeded(context.Background(), g, seed, pin, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := eng.SweepSeeded(context.Background(), g, seed, pin, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed SweepSeeded allocates %v times per call, want 0", allocs)
	}
}

func TestSweepSeededThenRunReusesEngine(t *testing.T) {
	// A pool engine serves seeded shard sweeps and full detections back to
	// back; neither path may poison the other's state.
	g := generate.MustGenerate(generate.MG1, generate.Small, 0, 2)
	o := Options{Workers: 2}
	eng := NewEngine(o)
	want := Run(g, o)
	out := make([]int32, g.N())
	if _, _, err := eng.SweepSeeded(context.Background(), g, identitySeed(g.N()), g.N()/2, out); err != nil {
		t.Fatal(err)
	}
	got := eng.Run(g)
	if got.Modularity != want.Modularity || got.NumCommunities != want.NumCommunities {
		t.Fatalf("run after seeded sweep diverged: Q=%v/%v nc=%d/%d",
			got.Modularity, want.Modularity, got.NumCommunities, want.NumCommunities)
	}
	for v := range got.Membership {
		if got.Membership[v] != want.Membership[v] {
			t.Fatalf("membership diverges at %d", v)
		}
	}
}
