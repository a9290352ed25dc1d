package dynamic

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"grappolo/internal/core"
	"grappolo/internal/generate"
	"grappolo/internal/graph"
	"grappolo/internal/par"
	"grappolo/internal/seq"
)

// quality returns the modularity of m's current assignment computed on a
// fresh snapshot by the reference implementation, the cross-check that
// m.Modularity() must agree with.
func quality(m *Maintainer) float64 {
	g := m.Snapshot()
	if g.N() == 0 {
		return 0
	}
	return seq.Modularity(g, m.comm, 1)
}

func smallFull() core.Options {
	o := core.BaselineVFColor(2)
	o.ColoringVertexCutoff = 32
	return o
}

func twoCliques() *graph.Graph {
	b := graph.NewBuilder(10)
	for base := 0; base <= 5; base += 5 {
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				b.AddEdge(int32(base+i), int32(base+j), 1)
			}
		}
	}
	b.AddEdge(0, 5, 1)
	return b.Build(2)
}

func TestMaintainerInitialState(t *testing.T) {
	g := twoCliques()
	m := New(g, Options{Full: smallFull()})
	if m.N() != 10 || m.FullRuns() != 1 {
		t.Fatalf("n=%d fullRuns=%d", m.N(), m.FullRuns())
	}
	if got, want := m.Modularity(), quality(m); math.Abs(got-want) > 1e-9 {
		t.Fatalf("overlay modularity %v != snapshot %v", got, want)
	}
	if m.Modularity() < 0.4 {
		t.Fatalf("initial Q=%v", m.Modularity())
	}
}

func TestIncrementalEdgeJoinsNewVertex(t *testing.T) {
	g := twoCliques()
	m := New(g, Options{Full: smallFull(), BatchSize: 1})
	// New vertex 10 attaches firmly to the first clique.
	for _, v := range []int32{0, 1, 2, 3} {
		if err := m.AddEdge(10, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	m.Flush()
	comm := m.Membership()
	if comm[10] != comm[0] {
		t.Fatalf("new vertex not merged into its clique: %v", comm[10])
	}
	if got, want := m.Modularity(), quality(m); math.Abs(got-want) > 1e-9 {
		t.Fatalf("overlay %v vs snapshot %v", got, want)
	}
}

func TestBatchingAndFlush(t *testing.T) {
	g := twoCliques()
	m := New(g, Options{Full: smallFull(), BatchSize: 100, RefreshFraction: 10})
	if err := m.AddEdge(10, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Below batch size: not applied yet, membership unchanged in length.
	if m.N() != 10 {
		t.Fatalf("edge applied before flush: n=%d", m.N())
	}
	m.Flush()
	if m.N() != 11 {
		t.Fatalf("flush did not grow: n=%d", m.N())
	}
	if m.BatchApplies() != 1 {
		t.Fatalf("batches=%d", m.BatchApplies())
	}
}

func TestRefreshTriggersFullRun(t *testing.T) {
	g := twoCliques()
	m := New(g, Options{Full: smallFull(), BatchSize: 1, RefreshFraction: 0.01})
	before := m.FullRuns()
	if err := m.AddEdge(0, 7, 1); err != nil { // touches > 1% of 10 vertices
		t.Fatal(err)
	}
	if m.FullRuns() != before+1 {
		t.Fatalf("full run not triggered: %d", m.FullRuns())
	}
}

func TestStreamMaintainsQualityOnGrowingSBM(t *testing.T) {
	// Stream an SBM in two halves: seed with the first half, then feed the
	// rest edge by edge. Incremental quality must track a from-scratch run
	// within a small band.
	full, truth := generate.SBM(generate.SBMConfig{
		Communities: []int{60, 60, 60}, IntraDegree: 12, CrossFrac: 0.05,
	}, 5, 2)
	_ = truth
	// Split edges.
	var initial, stream []graph.Edge
	rng := par.NewRNG(9)
	for u := 0; u < full.N(); u++ {
		nbr, wts := full.Neighbors(u)
		for t, v := range nbr {
			if int32(u) > v {
				continue
			}
			e := graph.Edge{U: int32(u), V: v, W: wts[t]}
			if rng.Float64() < 0.7 {
				initial = append(initial, e)
			} else {
				stream = append(stream, e)
			}
		}
	}
	gb := graph.NewBuilder(full.N())
	gb.AddEdges(initial)
	m := New(gb.Build(2), Options{Full: smallFull(), BatchSize: 64, RefreshFraction: 0.35})
	for _, e := range stream {
		if err := m.AddEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	m.Flush()
	streamQ := quality(m)
	scratch := core.Run(full, smallFull())
	if streamQ < scratch.Modularity-0.1 {
		t.Fatalf("incremental Q=%.4f trails scratch %.4f by more than 0.1",
			streamQ, scratch.Modularity)
	}
	t.Logf("incremental Q=%.4f scratch Q=%.4f fullRuns=%d batches=%d",
		streamQ, scratch.Modularity, m.FullRuns(), m.BatchApplies())
}

func TestAddEdgeErrors(t *testing.T) {
	m := New(twoCliques(), Options{Full: smallFull()})
	if err := m.AddEdge(-1, 0, 1); err == nil {
		t.Fatal("want error for negative id")
	}
}

func TestSelfLoopInsertion(t *testing.T) {
	m := New(twoCliques(), Options{Full: smallFull(), BatchSize: 1, RefreshFraction: 10})
	if err := m.AddEdge(3, 3, 2); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Modularity(), quality(m); math.Abs(got-want) > 1e-9 {
		t.Fatalf("overlay %v vs snapshot %v after self-loop", got, want)
	}
}

// TestSelfLoopStreamMatchesReference audits the overlay's self-loop weight
// convention end to end: a self-loop is stored once, counted once in the
// degree and once in `within`, while non-loop edges are counted twice via
// the two overlay directions — the same convention as graph's CSR and
// seq.Modularity. The stream exercises initial self-loops, self-loops on
// existing and brand-new vertices, and both Flush paths (incremental
// local-move and full re-run), cross-checking the overlay score and its
// degree bookkeeping against a fresh Snapshot after every stage.
func TestSelfLoopStreamMatchesReference(t *testing.T) {
	b := graph.NewBuilder(6)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(int32(i), int32(j), 1)
		}
	}
	b.AddEdge(1, 1, 2.5) // self-loop in the seed graph
	b.AddEdge(4, 5, 1)
	g := b.Build(2)

	check := func(m *Maintainer, stage string) {
		t.Helper()
		got, want := m.Modularity(), quality(m)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s: overlay Q=%v != snapshot Q=%v (diff %g)", stage, got, want, got-want)
		}
		snap := m.Snapshot()
		if math.Abs(m.m2-snap.TotalWeight()) > 1e-9 {
			t.Fatalf("%s: overlay 2m=%v != snapshot %v", stage, m.m2, snap.TotalWeight())
		}
		commDeg := make([]float64, m.N())
		for i := 0; i < m.N(); i++ {
			if math.Abs(m.degree[i]-snap.Degree(i)) > 1e-9 {
				t.Fatalf("%s: degree[%d]=%v != snapshot %v", stage, i, m.degree[i], snap.Degree(i))
			}
			commDeg[m.comm[i]] += m.degree[i]
		}
		for c := range commDeg {
			if math.Abs(commDeg[c]-m.commDeg[c]) > 1e-9 {
				t.Fatalf("%s: commDeg[%d]=%v, recomputed %v", stage, c, m.commDeg[c], commDeg[c])
			}
		}
	}

	// RefreshFraction 0.99 keeps Flush on the incremental local-move path.
	m := New(g, Options{Full: smallFull(), BatchSize: 100, RefreshFraction: 0.99})
	check(m, "initial (seed self-loop)")

	m.AddEdge(0, 0, 3) // self-loop on an existing vertex
	m.AddEdge(2, 2, 1.5)
	m.AddEdge(7, 7, 4) // self-loop on a brand-new vertex (grows past id 6)
	m.AddEdge(7, 0, 1)
	m.Flush()
	if m.FullRuns() != 1 {
		t.Fatalf("expected the incremental path, fullRuns=%d", m.FullRuns())
	}
	check(m, "incremental batch with self-loops")

	// A second maintainer with a tiny refresh fraction forces the full
	// re-run path on the same self-loop stream.
	mf := New(g, Options{Full: smallFull(), BatchSize: 100, RefreshFraction: 1e-9})
	mf.AddEdge(0, 0, 3)
	mf.AddEdge(7, 7, 4)
	mf.Flush()
	if mf.FullRuns() != 2 {
		t.Fatalf("expected a full re-run, fullRuns=%d", mf.FullRuns())
	}
	check(mf, "full-rerun batch with self-loops")
}

func TestEmptyStart(t *testing.T) {
	m := New(graph.NewBuilder(0).Build(1), Options{Full: smallFull(), BatchSize: 4, RefreshFraction: 10})
	if m.Modularity() != 0 {
		t.Fatal("empty modularity")
	}
	for i := int32(0); i < 4; i++ {
		if err := m.AddEdge(i, (i+1)%4, 1); err != nil {
			t.Fatal(err)
		}
	}
	m.Flush()
	if m.N() != 4 {
		t.Fatalf("n=%d", m.N())
	}
	if got, want := m.Modularity(), quality(m); math.Abs(got-want) > 1e-9 {
		t.Fatalf("overlay %v vs snapshot %v", got, want)
	}
}

// TestAddEdgeRejectsBadWeights pins the weight-validation fix: NaN used to
// slip through the `w <= 0` sign test (NaN compares false) and poison
// m2/degree/commDeg into a permanently-NaN Modularity, and non-positive
// weights were silently coerced to 1. All now fail typed, and the overlay
// is untouched.
func TestAddEdgeRejectsBadWeights(t *testing.T) {
	m := New(twoCliques(), Options{Full: smallFull(), BatchSize: 1})
	qBefore := m.Modularity()
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -3} {
		err := m.AddEdge(0, 7, w)
		if !errors.Is(err, ErrBadWeight) {
			t.Fatalf("AddEdge(w=%v) = %v, want ErrBadWeight", w, err)
		}
	}
	if len(m.pending) != 0 {
		t.Fatalf("rejected edges were buffered: %d pending", len(m.pending))
	}
	if q := m.Modularity(); q != qBefore || math.IsNaN(q) {
		t.Fatalf("rejected edges perturbed the overlay: Q %v -> %v", qBefore, q)
	}
	// A valid edge still lands.
	if err := m.AddEdge(0, 7, 0.5); err != nil {
		t.Fatal(err)
	}
}

// TestFlushCtxCanceled pins the cancellation fix: a refresh-triggered full
// re-detection honors ctx (the engine's chunk-granular contract), the
// overlay stays consistent, and the next uncancelled flush recovers by
// re-running the refresh.
func TestFlushCtxCanceled(t *testing.T) {
	g := twoCliques()
	m := New(g, Options{Full: smallFull(), BatchSize: 100, RefreshFraction: 0.01})
	runs := m.FullRuns()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.AddEdgeCtx(ctx, 0, 7, 1); err != nil {
		t.Fatalf("buffering under a dead ctx must not fail: %v", err)
	}
	err := m.FlushCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("FlushCtx under canceled ctx = %v, want context.Canceled", err)
	}
	if m.FullRuns() != runs {
		t.Fatalf("canceled refresh still counted a full run")
	}
	// Overlay applied, drift retained: degree and m2 include the edge.
	if m.degree[7] != g.Degree(7)+1 {
		t.Fatalf("canceled flush lost the applied edge: degree[7]=%v", m.degree[7])
	}
	if len(m.touched) == 0 {
		t.Fatal("canceled refresh dropped the touched set; it can never re-arm")
	}
	// Recovery: a live-context flush retries the refresh.
	if err := m.AddEdge(1, 8, 1); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if m.FullRuns() != runs+1 {
		t.Fatalf("refresh did not re-arm after cancellation: runs=%d", m.FullRuns())
	}
	if got, want := m.Modularity(), quality(m); math.Abs(got-want) > 1e-9 {
		t.Fatalf("overlay %v vs snapshot %v after recovery", got, want)
	}
}

// TestNewSeeded pins the seeded constructor: it adopts the given membership
// with zero engine runs, agrees with the reference modularity, and keeps
// maintaining incrementally from that seed.
func TestNewSeeded(t *testing.T) {
	g := twoCliques()
	base := New(g, Options{Full: smallFull()})
	seed := append([]int32(nil), base.Membership()...)

	m, err := NewSeeded(g, seed, Options{Full: smallFull(), BatchSize: 1, RefreshFraction: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.FullRuns() != 0 {
		t.Fatalf("NewSeeded ran the engine: FullRuns=%d", m.FullRuns())
	}
	if got, want := m.Modularity(), base.Modularity(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("seeded overlay Q=%v, seed Q=%v", got, want)
	}
	if got, want := m.Modularity(), quality(m); math.Abs(got-want) > 1e-9 {
		t.Fatalf("overlay %v vs snapshot %v", got, want)
	}
	// Incremental maintenance proceeds from the seed.
	for _, v := range []int32{0, 1, 2, 3} {
		if err := m.AddEdge(10, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	if m.Membership()[10] != m.Membership()[0] {
		t.Fatal("seeded maintainer did not absorb the new vertex")
	}
	if m.FullRuns() != 0 {
		t.Fatalf("small delta triggered a full run: %d", m.FullRuns())
	}
}

// TestNewSeededRejectsBadMembership pins seed validation.
func TestNewSeededRejectsBadMembership(t *testing.T) {
	g := twoCliques()
	if _, err := NewSeeded(g, make([]int32, 3), Options{Full: smallFull()}); err == nil {
		t.Fatal("want error for short membership")
	}
	bad := make([]int32, g.N())
	bad[4] = int32(g.N())
	if _, err := NewSeeded(g, bad, Options{Full: smallFull()}); err == nil {
		t.Fatal("want error for out-of-range label")
	}
}

// TestFullRunAllocsBounded pins the scratch-reuse perf fix: a warm refresh
// reuses the staging edge buffer, the engine run target and the
// community-degree array, so repeated refreshes allocate far less than the
// first (which pays for all persistent scratch). The snapshot CSR itself is
// rebuilt per refresh, so the bound is "small", not zero.
func TestFullRunAllocsBounded(t *testing.T) {
	g := twoCliques()
	m := New(g, Options{Full: core.Baseline(1), BatchSize: 1, RefreshFraction: 0})
	// RefreshFraction 0 defaults to 0.25; force refreshes via tiny fraction.
	m.opts.RefreshFraction = 1e-9
	// Warm every code path: a few refresh cycles.
	for i := 0; i < 3; i++ {
		if err := m.AddEdge(0, int32(5+i%5), 0.001); err != nil {
			t.Fatal(err)
		}
		m.Flush()
	}
	warm := testing.AllocsPerRun(10, func() {
		if err := m.AddEdge(1, 6, 0.001); err != nil {
			t.Fatal(err)
		}
		m.Flush()
	})
	// The dominant remaining cost is the per-refresh snapshot CSR build
	// (FromEdges) plus overlay map touches — tens of allocations on this
	// 11-vertex graph. Before the fix every refresh also rebuilt the
	// Builder's edge slab, a fresh commDeg, a fresh touched map and a full
	// engine Result (hundreds of allocations).
	if warm > 120 {
		t.Fatalf("warm refresh allocates %v times, want <= 120", warm)
	}
}

// TestFlushAllocsBounded pins the pooled accumulator of localOptimize: a
// frontier vertex gathers its neighbor communities on the maintainer's
// SparseAccum, so a warm incremental flush allocates a few slices for the
// batch (5 here), not a map per vertex visit (about 6,200). Re-adding the
// same edges keeps the overlay's maps and the frontier the same from flush
// to flush.
func TestFlushAllocsBounded(t *testing.T) {
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 1)
	full := core.BaselineVFColor(1)
	m, err := NewSeeded(g, core.NewEngine(full).Run(g).Membership, Options{Workers: 1, Full: full})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	edges := make([]graph.Edge, 64)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(rng.IntN(g.N())), V: int32(rng.IntN(g.N())), W: 1}
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, e := range edges {
			if err := m.AddEdge(e.U, e.V, e.W); err != nil {
				t.Fatal(err)
			}
		}
		m.Flush()
	})
	if m.FullRuns() != 0 {
		t.Fatalf("the flushes ran %d full re-detections, want 0", m.FullRuns())
	}
	if allocs > 16 {
		t.Fatalf("a warm incremental flush allocates %v times, want <= 16", allocs)
	}
}

// TestBatchRepeats pins the streaming determinism contract: with integer
// edge weights, a maintainer seeded from the same membership that applies
// the same batch reaches the same Membership and Modularity bits on every
// run. The frontier's serial local moves read each other's results, so a
// visit order taken from Go's randomized map iteration would let the
// outcome vary between runs.
func TestBatchRepeats(t *testing.T) {
	const runs = 50
	full := core.BaselineVFColor(1)
	for _, in := range []generate.Input{generate.RGG, generate.CNR, generate.LiveJournal, generate.MG1} {
		g := generate.MustGenerate(in, generate.Small, 0, 1)
		seed := core.NewEngine(full).Run(g).Membership
		rng := rand.New(rand.NewPCG(1, 2))
		edges := make([]graph.Edge, 64)
		for i := range edges {
			edges[i] = graph.Edge{U: int32(rng.IntN(g.N())), V: int32(rng.IntN(g.N())), W: 1}
		}
		var want []int32
		var wantQ uint64
		for r := 0; r < runs; r++ {
			m, err := NewSeeded(g, seed, Options{Workers: 1, Full: full})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range edges {
				if err := m.AddEdge(e.U, e.V, e.W); err != nil {
					t.Fatal(err)
				}
			}
			m.Flush()
			if m.FullRuns() != 0 || m.BatchApplies() != 1 {
				t.Fatalf("%s: the batch ran %d full re-detections and %d incremental applies, want 0 and 1",
					in, m.FullRuns(), m.BatchApplies())
			}
			q := math.Float64bits(m.Modularity())
			if r == 0 {
				want, wantQ = slices.Clone(m.Membership()), q
				continue
			}
			if !slices.Equal(m.Membership(), want) || q != wantQ {
				t.Fatalf("%s: run %d gave Q %v, run 0 gave Q %v (memberships equal: %v)",
					in, r, math.Float64frombits(q), math.Float64frombits(wantQ), slices.Equal(m.Membership(), want))
			}
		}
	}
}
