package shard

import (
	"context"
	"math"
	"slices"
	"testing"

	"grappolo/internal/core"
	"grappolo/internal/distributed"
	"grappolo/internal/generate"
	"grappolo/internal/graph"
	"grappolo/internal/seq"
)

func testSrc(workers int) Fresh {
	return Fresh{Opts: core.Options{Workers: workers}}
}

// checkPartition asserts the structural invariants every mode must satisfy.
func checkPartition(t *testing.T, g *graph.Graph, shards int, mode PartitionMode) {
	t.Helper()
	part, verts, err := partition(g, shards, mode)
	if err != nil {
		t.Fatalf("%v: %v", mode, err)
	}
	if len(part) != g.N() {
		t.Fatalf("%v: part length %d != n %d", mode, len(part), g.N())
	}
	seen := 0
	for s, vs := range verts {
		for i, v := range vs {
			if part[v] != int32(s) {
				t.Fatalf("%v: vertex %d listed under shard %d but part says %d", mode, v, s, part[v])
			}
			if i > 0 && vs[i-1] >= v {
				t.Fatalf("%v: shard %d vertex list not ascending at %d", mode, s, i)
			}
		}
		seen += len(vs)
	}
	if seen != g.N() {
		t.Fatalf("%v: shard lists cover %d of %d vertices", mode, seen, g.N())
	}
}

func TestPartitionModes(t *testing.T) {
	g := generate.MustGenerate(generate.CNR, generate.Small, 0, 2)
	for _, mode := range []PartitionMode{ModeBlock, ModeArcs} {
		for _, shards := range []int{1, 2, 5, 16} {
			checkPartition(t, g, shards, mode)
		}
	}
	if _, _, err := partition(g, 2, PartitionMode(99)); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestBlockOfMatchesRanges(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 7} {
		for _, n := range []int{7, 10, 64, 101} {
			if shards > n {
				continue
			}
			for v := 0; v < n; v++ {
				p := blockOf(v, n, shards)
				if lo, hi := p*n/shards, (p+1)*n/shards; v < lo || v >= hi {
					t.Fatalf("blockOf(%d, n=%d, shards=%d)=%d but range is [%d,%d)", v, n, shards, p, lo, hi)
				}
			}
		}
	}
}

func TestArcBoundsBalanced(t *testing.T) {
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 2)
	shards := 6
	bounds := arcBounds(g, shards)
	if bounds[0] != 0 || bounds[shards] != int64(g.N()) {
		t.Fatalf("bounds do not span the vertex range: %v", bounds)
	}
	prefix := g.ArcOffsets()
	total := prefix[g.N()]
	ideal := float64(total) / float64(shards)
	for s := 0; s < shards; s++ {
		if bounds[s+1] < bounds[s] {
			t.Fatalf("bounds not monotone: %v", bounds)
		}
		load := prefix[bounds[s+1]] - prefix[bounds[s]]
		// Arc-balanced ranges on a bounded-degree graph must stay near ideal.
		if f := float64(load); f > 1.5*ideal {
			t.Fatalf("shard %d load %d vs ideal %.0f", s, load, ideal)
		}
	}
}

func TestShardedSingleShardMatchesEngine(t *testing.T) {
	g := generate.MustGenerate(generate.MG1, generate.Small, 0, 2)
	o := core.Options{Workers: 2}
	want := core.Run(g, o)
	res, err := Run(context.Background(), g, Options{Shards: 1}, Fresh{Opts: o})
	if err != nil {
		t.Fatal(err)
	}
	if res.Modularity != want.Modularity || res.NumCommunities != want.NumCommunities {
		t.Fatalf("single-shard run diverged: Q=%v/%v nc=%d/%d",
			res.Modularity, want.Modularity, res.NumCommunities, want.NumCommunities)
	}
	if res.CutEdges != 0 || res.Shards != 1 {
		t.Fatalf("single shard: cut=%d shards=%d", res.CutEdges, res.Shards)
	}
}

func TestShardedRecoversQualityOnScrambledIDs(t *testing.T) {
	// The promotion's reason to exist: on a graph whose vertex ids are
	// scrambled (so block ranges cut communities adversarially), halo edges
	// plus ghost-label exchange must close most of the gap to the
	// shared-memory engine — and beat the drop-cut-edges emulation.
	g, _ := generate.SBM(generate.SBMConfig{
		Communities: []int{90, 90, 90, 90, 90, 90}, IntraDegree: 14, CrossFrac: 0.06,
	}, 7, 2)
	scrambled, err := graph.Relabel(g, graph.RandomPermutation(g.N(), 11))
	if err != nil {
		t.Fatal(err)
	}
	o := core.Options{Workers: 2}
	shared := core.Run(scrambled, o)
	res, err := Run(context.Background(), scrambled, Options{Shards: 4, Rounds: 2}, Fresh{Opts: o})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutEdges == 0 {
		t.Fatal("scrambled block partition should produce cut edges")
	}
	if q := seq.Modularity(scrambled, res.Membership, 1); math.Abs(q-res.Modularity) > 1e-9 {
		t.Fatalf("reported Q=%v but membership scores %v", res.Modularity, q)
	}
	if res.Modularity < shared.Modularity*0.98 {
		t.Fatalf("sharded Q=%.4f below 98%% of shared-memory Q=%.4f", res.Modularity, shared.Modularity)
	}
	emu, err := distributed.Run(scrambled, distributed.Options{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Modularity <= emu.Modularity {
		t.Fatalf("sharded Q=%.4f does not beat drop-cut-edges emulation Q=%.4f", res.Modularity, emu.Modularity)
	}
	t.Logf("shared=%.4f sharded=%.4f emulation=%.4f cut=%d localIters=%d",
		shared.Modularity, res.Modularity, emu.Modularity, res.CutEdges, res.LocalIterations)
}

func TestShardedDeterministic(t *testing.T) {
	g := generate.MustGenerate(generate.CNR, generate.Small, 3, 2)
	opts := Options{Shards: 5, Rounds: 2, Mode: ModeArcs}
	var ref *Result
	for trial := 0; trial < 3; trial++ {
		res, err := Run(context.Background(), g, opts, testSrc(3))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Modularity != ref.Modularity || res.NumCommunities != ref.NumCommunities {
			t.Fatalf("trial %d diverged: Q=%v/%v", trial, res.Modularity, ref.Modularity)
		}
		for v := range res.Membership {
			if res.Membership[v] != ref.Membership[v] {
				t.Fatalf("trial %d: membership diverges at vertex %d", trial, v)
			}
		}
	}
}

func TestShardedEmptyAndTiny(t *testing.T) {
	empty, err := Run(context.Background(), graph.NewBuilder(0).Build(1), Options{}, testSrc(1))
	if err != nil || empty.NumCommunities != 0 || len(empty.Membership) != 0 {
		t.Fatalf("empty: %+v %v", empty, err)
	}
	single := graph.NewBuilder(1).Build(1)
	res, err := Run(context.Background(), single, Options{Shards: 16}, testSrc(1))
	if err != nil || res.NumCommunities != 1 {
		t.Fatalf("single: %+v %v", res, err)
	}
	if res.Shards != 1 {
		t.Fatalf("shards not clamped: %d", res.Shards)
	}
}

func TestShardedValidation(t *testing.T) {
	g := graph.NewBuilder(2).Build(1)
	if _, err := Run(context.Background(), g, Options{}, nil); err == nil {
		t.Fatal("nil Engines source accepted")
	}
	if _, err := Run(context.Background(), g, Options{Rounds: -1}, testSrc(1)); err == nil {
		t.Fatal("negative Rounds accepted")
	}
}

func TestShardedHonorsCancellation(t *testing.T) {
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, g, Options{Shards: 4}, testSrc(1)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestShardedExchangeHelpsOrHolds(t *testing.T) {
	// More exchange rounds must not hurt: each round re-seeds from a
	// configuration whose modularity the sweep can only maintain or improve,
	// and the merge runs on a finer-or-equal coarsening.
	g, _ := generate.SBM(generate.SBMConfig{
		Communities: []int{60, 60, 60, 60}, IntraDegree: 10, CrossFrac: 0.08,
	}, 5, 2)
	scrambled, err := graph.Relabel(g, graph.RandomPermutation(g.N(), 2))
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, rounds := range []int{0, 2, 4} {
		res, err := Run(context.Background(), scrambled, Options{Shards: 6, Rounds: rounds}, testSrc(2))
		if err != nil {
			t.Fatal(err)
		}
		if res.Modularity < prev-0.01 {
			t.Fatalf("rounds=%d regressed: Q=%.4f after %.4f", rounds, res.Modularity, prev)
		}
		prev = res.Modularity
	}
}

func TestRenumberDense(t *testing.T) {
	dense, num := renumber([]int32{5, 5, 2, 4, 2, 0})
	want := []int32{0, 0, 1, 2, 1, 3}
	if num != 4 {
		t.Fatalf("num=%d want 4", num)
	}
	for i := range want {
		if dense[i] != want[i] {
			t.Fatalf("dense=%v want %v", dense, want)
		}
	}
}

func TestSortSearchHelpers(t *testing.T) {
	v := []int32{4, 1, 4, 9, 1, 0}
	slices.Sort(v)
	if !slices.IsSorted(v) {
		t.Fatalf("not sorted: %v", v)
	}
	u := uniqueInt32(v)
	want := []int32{0, 1, 4, 9}
	if len(u) != len(want) {
		t.Fatalf("unique=%v want %v", u, want)
	}
	for i, x := range want {
		if u[i] != x {
			t.Fatalf("unique=%v want %v", u, want)
		}
		if got := searchInt32(u, x); got != i {
			t.Fatalf("searchInt32(%d)=%d want %d", x, got, i)
		}
	}
}
