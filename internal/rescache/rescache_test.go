package rescache

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"grappolo/internal/core"
	"grappolo/internal/dynamic"
	"grappolo/internal/graph"
	"grappolo/internal/seq"
)

func testGraph(t *testing.T, n int, edges [][3]float64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(int32(e[0]), int32(e[1]), e[2])
	}
	return b.Build(1)
}

func resOf(g *graph.Graph) *core.Result {
	res := &core.Result{Membership: make([]int32, g.N()), NumCommunities: 1}
	return res
}

// fakeClock is a settable time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func ringGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n), 1)
	}
	return b.Build(1)
}

func TestGetMissThenHit(t *testing.T) {
	s := New(Options{})
	g := ringGraph(t, 10)
	k := g.Fingerprint()
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	if !s.Put(g, resOf(g), nil) {
		t.Fatal("Put refused")
	}
	res, ok := s.Get(k)
	if !ok || res == nil {
		t.Fatal("miss after Put")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTTLExpiry(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := New(Options{TTL: time.Minute, Now: clk.now})
	g := ringGraph(t, 10)
	k := g.Fingerprint()
	s.Put(g, resOf(g), nil)

	clk.advance(59 * time.Second)
	if _, ok := s.Get(k); !ok {
		t.Fatal("entry expired before its TTL")
	}
	clk.advance(2 * time.Second)
	if _, ok := s.Get(k); ok {
		t.Fatal("entry served past its TTL")
	}
	st := s.Stats()
	if st.Expired != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v", st)
	}
	// Re-admission restarts the TTL.
	s.Put(g, resOf(g), nil)
	if _, ok := s.Get(k); !ok {
		t.Fatal("re-admitted entry not served")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	ga := ringGraph(t, 10)
	gb := ringGraph(t, 12)
	gc := ringGraph(t, 14)
	per := EstimateBytes(gc, resOf(gc), false)
	s := New(Options{MaxBytes: 2 * per})

	ka, kb, kc := ga.Fingerprint(), gb.Fingerprint(), gc.Fingerprint()
	s.Put(ga, resOf(ga), nil)
	s.Put(gb, resOf(gb), nil)
	// Touch A: B becomes least-recently-used.
	if _, ok := s.Get(ka); !ok {
		t.Fatal("A missing")
	}
	s.Put(gc, resOf(gc), nil)

	if got := s.lruKeys(); len(got) != 2 || got[0] != kc || got[1] != ka {
		t.Fatalf("LRU order after eviction: %d entries (want C, A)", len(got))
	}
	if _, ok := s.Get(kb); ok {
		t.Fatal("evicted entry B still served")
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestOversizedEntryNotAdmitted(t *testing.T) {
	g := ringGraph(t, 100)
	s := New(Options{MaxBytes: 16})
	if s.Put(g, resOf(g), nil) {
		t.Fatal("entry larger than the whole budget was admitted")
	}
	if s.Stats().Entries != 0 {
		t.Fatal("store not empty")
	}
}

// sameShapeRings returns two n-vertex unit-weight rings that agree on
// vertex count, arc count and total weight but differ in content: edges
// {2, 3} and {6, 7} weigh 2 and 3 in the first and 3 and 2 in the second.
func sameShapeRings(t *testing.T, n int) (*graph.Graph, *graph.Graph) {
	t.Helper()
	build := func(w23, w67 float64) *graph.Graph {
		b := graph.NewBuilder(n)
		for i := 0; i < n; i++ {
			w := 1.0
			switch i {
			case 2:
				w = w23
			case 6:
				w = w67
			}
			b.AddEdge(int32(i), int32((i+1)%n), w)
		}
		return b.Build(1)
	}
	return build(2, 3), build(3, 2)
}

// TestSameShapeNeverCrossServed pins that the key is the full content: two
// graphs of the same shape but different weights each get an entry of
// their own, and each is served its own result.
func TestSameShapeNeverCrossServed(t *testing.T) {
	a, b := sameShapeRings(t, 100)
	ka, kb := a.Fingerprint(), b.Fingerprint()
	if ka.N != kb.N || ka.Arcs != kb.Arcs || ka.WBits != kb.WBits || ka == kb {
		t.Fatalf("construction broken: want one shape, two contents\n%+v\n%+v", ka, kb)
	}
	s := New(Options{})
	resA, resB := resOf(a), resOf(b)
	resA.Modularity, resB.Modularity = 0.5, 0.25
	s.Put(a, resA, nil)
	if _, ok := s.Get(kb); ok {
		t.Fatal("b was served a's result")
	}
	if !s.Put(b, resB, nil) {
		t.Fatal("b was not admitted")
	}
	for _, want := range []struct {
		fp graph.Fingerprint
		q  float64
	}{{ka, 0.5}, {kb, 0.25}} {
		if got, ok := s.Get(want.fp); !ok || got.Modularity != want.q {
			t.Fatalf("%+v: ok=%v, want its own result (Q %v)", want.fp, ok, want.q)
		}
	}
	if st := s.Stats(); st.Entries != 2 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 2 entries, 2 hits, 1 miss", st)
	}
}

func TestDiffEdges(t *testing.T) {
	base := testGraph(t, 6, [][3]float64{{0, 1, 1}, {1, 2, 2}, {3, 4, 1}, {2, 2, 3}})
	for _, tc := range []struct {
		name  string
		next  *graph.Graph
		want  int // delta edge count, -1 = not routable
		total float64
	}{
		{"identical", testGraph(t, 6, [][3]float64{{0, 1, 1}, {1, 2, 2}, {3, 4, 1}, {2, 2, 3}}), 0, 0},
		{"one new edge", testGraph(t, 6, [][3]float64{{0, 1, 1}, {1, 2, 2}, {3, 4, 1}, {2, 2, 3}, {4, 5, 7}}), 1, 7},
		{"weight increase", testGraph(t, 6, [][3]float64{{0, 1, 2.5}, {1, 2, 2}, {3, 4, 1}, {2, 2, 3}}), 1, 1.5},
		{"self-loop added", testGraph(t, 6, [][3]float64{{0, 1, 1}, {1, 2, 2}, {3, 4, 1}, {2, 2, 3}, {5, 5, 2}}), 1, 2},
		{"new vertex edge", testGraph(t, 8, [][3]float64{{0, 1, 1}, {1, 2, 2}, {3, 4, 1}, {2, 2, 3}, {6, 7, 1}}), 1, 1},
		{"edge removed", testGraph(t, 6, [][3]float64{{0, 1, 1}, {3, 4, 1}, {2, 2, 3}}), -1, 0},
		{"weight decreased", testGraph(t, 6, [][3]float64{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}, {2, 2, 3}}), -1, 0},
		{"rewired", testGraph(t, 6, [][3]float64{{0, 2, 1}, {1, 2, 2}, {3, 4, 1}, {2, 2, 3}}), -1, 0},
		{"fewer vertices", testGraph(t, 5, [][3]float64{{0, 1, 1}, {1, 2, 2}, {3, 4, 1}, {2, 2, 3}}), -1, 0},
	} {
		edges, ok := DiffEdges(base, tc.next, 8, nil)
		if tc.want < 0 {
			if ok {
				t.Errorf("%s: routable with %d edges, want not routable", tc.name, len(edges))
			}
			continue
		}
		if !ok || len(edges) != tc.want {
			t.Errorf("%s: ok=%v edges=%d, want %d", tc.name, ok, len(edges), tc.want)
			continue
		}
		var sum float64
		for _, e := range edges {
			sum += e.W
		}
		if sum != tc.total {
			t.Errorf("%s: delta weight %v, want %v", tc.name, sum, tc.total)
		}
	}
}

func TestDiffEdgesBudget(t *testing.T) {
	base := ringGraph(t, 20)
	b := graph.NewBuilder(20)
	for i := 0; i < 20; i++ {
		b.AddEdge(int32(i), int32((i+1)%20), 1)
	}
	for i := 0; i < 4; i++ {
		b.AddEdge(int32(i), int32(i+10), 1)
	}
	next := b.Build(1)
	if _, ok := DiffEdges(base, next, 3, nil); ok {
		t.Fatal("diff of 4 edits routable under budget 3")
	}
	edges, ok := DiffEdges(base, next, 4, nil)
	if !ok || len(edges) != 4 {
		t.Fatalf("ok=%v edges=%d, want 4", ok, len(edges))
	}
}

// TestDeltaDetect routes a one-edge edit onto a seeded maintainer with zero
// engine runs and admits the result for the new graph.
func TestDeltaDetect(t *testing.T) {
	// Two 5-cliques plus a bridge; membership from the reference pipeline.
	b := graph.NewBuilder(10)
	for base := 0; base <= 5; base += 5 {
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				b.AddEdge(int32(base+i), int32(base+j), 1)
			}
		}
	}
	b.AddEdge(0, 5, 1)
	base := b.Build(1)
	mem := make([]int32, 10)
	for i := range mem {
		mem[i] = int32(i / 5)
	}
	res := &core.Result{Membership: mem, NumCommunities: 2, Modularity: seq.Modularity(base, mem, 1)}

	dyn := dynamic.Options{Workers: 1, Full: core.Baseline(1)}
	s := New(Options{DeltaEdges: 4, Dynamic: dyn})
	s.Put(base, res, nil)

	// Edit: new vertex 10 tied into the first clique.
	b2 := graph.NewBuilder(11)
	for base := 0; base <= 5; base += 5 {
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				b2.AddEdge(int32(base+i), int32(base+j), 1)
			}
		}
	}
	b2.AddEdge(0, 5, 1)
	b2.AddEdge(10, 0, 1)
	b2.AddEdge(10, 1, 1)
	next := b2.Build(1)
	out, handled, err := s.DeltaDetect(context.Background(), next)
	if err != nil || !handled {
		t.Fatalf("handled=%v err=%v", handled, err)
	}
	if !out.Incremental {
		t.Fatal("delta result not marked Incremental")
	}
	if len(out.Membership) != 11 {
		t.Fatalf("membership length %d", len(out.Membership))
	}
	if out.Membership[10] != out.Membership[0] {
		t.Fatal("new vertex not absorbed into its clique")
	}
	ref := seq.Modularity(next, out.Membership, 1)
	if math.Abs(out.Modularity-ref) > 1e-9 {
		t.Fatalf("reported Q=%v, reference %v", out.Modularity, ref)
	}
	// The new graph is now cached exactly.
	if _, ok := s.Get(next.Fingerprint()); !ok {
		t.Fatal("delta result not admitted for the new graph")
	}
	if st := s.Stats(); st.DeltaRouted != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDeltaDetectCanceled pins ctx threading through the delta tier.
func TestDeltaDetectCanceled(t *testing.T) {
	base := ringGraph(t, 40)
	mem := make([]int32, 40)
	res := &core.Result{Membership: mem, NumCommunities: 1}
	// RefreshFraction forces the incremental flush into a full engine run,
	// the cancellable path.
	dyn := dynamic.Options{Workers: 1, Full: core.Baseline(1), RefreshFraction: 1e-9}
	s := New(Options{DeltaEdges: 4, Dynamic: dyn})
	k := base.Fingerprint()
	s.Put(base, res, nil)

	b := graph.NewBuilder(40)
	for i := 0; i < 40; i++ {
		b.AddEdge(int32(i), int32((i+1)%40), 1)
	}
	b.AddEdge(0, 20, 1)
	next := b.Build(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, handled, err := s.DeltaDetect(ctx, next)
	if !handled || !errors.Is(err, context.Canceled) {
		t.Fatalf("handled=%v err=%v, want canceled", handled, err)
	}
	// The base entry survives a failed route.
	if _, ok := s.Get(k); !ok {
		t.Fatal("base entry lost after canceled delta")
	}
}

// TestDeltaDetectNotRoutable falls through on an incompatible edit.
func TestDeltaDetectNotRoutable(t *testing.T) {
	base := ringGraph(t, 30)
	res := &core.Result{Membership: make([]int32, 30)}
	s := New(Options{DeltaEdges: 4, Dynamic: dynamic.Options{Workers: 1, Full: core.Baseline(1)}})
	s.Put(base, res, nil)

	// Same arc count and vertex count, heavier total weight, but REWIRED:
	// passes the O(1) gates, fails the CSR diff.
	b := graph.NewBuilder(30)
	for i := 0; i < 30; i++ {
		j := (i + 1) % 30
		if i == 3 {
			j = 7
		}
		b.AddEdge(int32(i), int32(j), 2)
	}
	next := b.Build(1)
	if _, handled, _ := s.DeltaDetect(context.Background(), next); handled {
		t.Fatal("rewired graph routed as an insertion delta")
	}
}
