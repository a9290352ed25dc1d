package grappolo_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"grappolo"
	"grappolo/internal/core"
	"grappolo/internal/generate"
	igraph "grappolo/internal/graph"
)

// ringEdges returns a weighted ring C_n whose edge weights are seeded, so
// same-n rings have identical CSR shape (same byte estimate) but distinct
// content.
func ringEdges(n int, seed float64) []grappolo.Edge {
	edges := make([]grappolo.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = grappolo.Edge{U: int32(i), V: int32((i + 1) % n), W: 1 + seed + float64(i%7)/8}
	}
	return edges
}

// cliquePairEdges returns two 5-cliques bridged by one edge — 10 vertices,
// an unambiguous two-community graph the delta tests perturb.
func cliquePairEdges() []grappolo.Edge {
	var edges []grappolo.Edge
	for base := int32(0); base <= 5; base += 5 {
		for i := base; i < base+5; i++ {
			for j := i + 1; j < base+5; j++ {
				edges = append(edges, grappolo.Edge{U: i, V: j, W: 1})
			}
		}
	}
	return append(edges, grappolo.Edge{U: 4, V: 5, W: 1})
}

func newCachedPool(t *testing.T, copts ...grappolo.CacheOption) (*grappolo.Cache, *grappolo.Pool) {
	t.Helper()
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := grappolo.NewCache(pool, copts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, pool
}

// TestCacheExactHit pins the tentpole contract: a repeated identical Detect
// is served from the cache with ZERO additional engine runs and a result
// bit-identical to the run that populated the entry.
func TestCacheExactHit(t *testing.T) {
	c, pool := newCachedPool(t)
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 1)
	ctx := context.Background()

	cold, err := c.Detect(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	ledAfterCold := pool.Stats().Led

	warm, err := c.Detect(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if led := pool.Stats().Led; led != ledAfterCold {
		t.Errorf("cache hit ran the engine: Led %d -> %d", ledAfterCold, led)
	}
	if warm == cold {
		t.Fatal("hit returned the cached Result itself, not an independent copy")
	}
	if math.Float64bits(warm.Modularity) != math.Float64bits(cold.Modularity) {
		t.Errorf("hit modularity %v != cold %v (must be bit-identical)", warm.Modularity, cold.Modularity)
	}
	if warm.NumCommunities != cold.NumCommunities || len(warm.Membership) != len(cold.Membership) {
		t.Fatalf("hit shape (%d comms, %d verts) != cold (%d, %d)",
			warm.NumCommunities, len(warm.Membership), cold.NumCommunities, len(cold.Membership))
	}
	for i := range warm.Membership {
		if warm.Membership[i] != cold.Membership[i] {
			t.Fatalf("membership diverges at vertex %d: %d != %d", i, warm.Membership[i], cold.Membership[i])
		}
	}
	if warm.Incremental {
		t.Error("exact hit must not be marked Incremental")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}

	// Mutating the served copy must not poison the cache.
	warm.Membership[0] = -1
	again, err := c.Detect(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if again.Membership[0] != cold.Membership[0] {
		t.Error("mutating a served Result leaked into the cached entry")
	}
}

// TestCacheTTLExpiry pins that an entry past its TTL is never served.
func TestCacheTTLExpiry(t *testing.T) {
	c, pool := newCachedPool(t, grappolo.CacheTTL(30*time.Millisecond))
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 1)
	ctx := context.Background()

	if _, err := c.Detect(ctx, g); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	if _, err := c.Detect(ctx, g); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 2 || s.Expired == 0 {
		t.Errorf("stats after TTL lapse = %+v, want 0 hits / 2 misses / expirations", s)
	}
	if pool.Stats().Led != 2 {
		t.Errorf("Led = %d, want 2 (expired entry must re-run)", pool.Stats().Led)
	}
}

// TestCacheLRUEviction pins the eviction ORDER: with room for two entries, a
// third insert evicts the least-recently-USED entry — not the oldest
// inserted — so touching A before inserting C sacrifices B.
func TestCacheLRUEviction(t *testing.T) {
	// Phase 1: measure one entry's byte estimate with an unbounded cache.
	probe, _ := newCachedPool(t)
	const n = 400
	gA := grappolo.FromEdges(n, ringEdges(n, 0.125), 1)
	gB := grappolo.FromEdges(n, ringEdges(n, 0.25), 1)
	gC := grappolo.FromEdges(n, ringEdges(n, 0.5), 1)
	ctx := context.Background()
	if _, err := probe.Detect(ctx, gA); err != nil {
		t.Fatal(err)
	}
	per := probe.Stats().Bytes
	if per <= 0 {
		t.Fatalf("entry byte estimate = %d, want positive", per)
	}

	// Phase 2: budget fits two same-shape entries, not three.
	c, pool := newCachedPool(t, grappolo.CacheBytes(2*per+per/2))
	for _, g := range []*grappolo.Graph{gA, gB} {
		if _, err := c.Detect(ctx, g); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Detect(ctx, gA); err != nil { // bump A to MRU
		t.Fatal(err)
	}
	if _, err := c.Detect(ctx, gC); err != nil { // over budget: evicts B, not A
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats after third insert = %+v, want exactly 1 eviction / 2 entries", s)
	}
	led := pool.Stats().Led
	if _, err := c.Detect(ctx, gA); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Detect(ctx, gC); err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats().Led; got != led {
		t.Errorf("A and C should both be resident, but Led grew %d -> %d", led, got)
	}
	if _, err := c.Detect(ctx, gB); err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats().Led; got != led+1 {
		t.Errorf("B should have been the evicted entry: Led %d -> %d, want +1", led, got)
	}
}

// TestCacheCollisionNeverCrossServed drives a crafted pair of graphs with
// IDENTICAL sampled fingerprints but different content through one cache:
// the exact strong-hash admission check must refuse to serve either graph
// the other's result.
func TestCacheCollisionNeverCrossServed(t *testing.T) {
	c, pool := newCachedPool(t)
	gA, gB := igraph.CollidingRingPair(100)
	if gA.Fingerprint() != gB.Fingerprint() {
		t.Fatal("test precondition: sampled fingerprints must collide")
	}
	if gA.StrongHash() == gB.StrongHash() {
		t.Fatal("test precondition: strong hashes must differ")
	}
	ctx := context.Background()
	if _, err := c.Detect(ctx, gA); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Detect(ctx, gB); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 2 {
		t.Errorf("stats = %+v: the collision must be a miss, never a hit", s)
	}
	if s.Rejected == 0 {
		t.Error("Rejected = 0, want the strong-hash refusals counted")
	}
	if pool.Stats().Led != 2 {
		t.Errorf("Led = %d, want 2 (each graph runs its own detection)", pool.Stats().Led)
	}
	// The incumbent keeps its slot and keeps serving exactly.
	if _, err := c.Detect(ctx, gA); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Hits; got != 1 {
		t.Errorf("incumbent no longer served after collision: hits = %d, want 1", got)
	}
}

// TestCacheCollisionLeadsOwnRun pins the in-flight side of the same
// guarantee: a miss whose graph collides with an in-flight leader's
// sampled fingerprint leads its own run — two leaders queue, no follower
// joins — and is never handed the leader's result.
func TestCacheCollisionLeadsOwnRun(t *testing.T) {
	gA, gB := igraph.CollidingRingPair(100)
	wantA := core.Run(gA, core.Options{Workers: 1})
	wantB := core.Run(gB, core.Options{Workers: 1})
	c, pool := newCachedPool(t)
	ctx := context.Background()
	if err := pool.HoldEnginePermit(ctx); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var resA, resB *grappolo.Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		if resA, err = c.Detect(ctx, gA); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, "A's leader to queue", func() bool { return pool.QueuedWaiters() == 1 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		if resB, err = c.Detect(ctx, gB); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, "B to queue as a second leader", func() bool { return pool.QueuedWaiters() == 2 })
	pool.ReleaseEnginePermit()
	wg.Wait()
	if c.JoinedFollowers() != 0 {
		t.Errorf("colliding request attached as a follower (joins=%d)", c.JoinedFollowers())
	}
	if pool.Stats().Led != 2 {
		t.Errorf("Led = %d, want 2 separate engine runs", pool.Stats().Led)
	}
	mustMatch(t, "graph A", resA, wantA)
	mustMatch(t, "graph B", resB, wantB)
}

// TestCacheDeltaRouting pins the delta tier: a re-upload within the edge
// budget of a cached graph routes onto the seeded incremental maintainer
// (no cold engine run through the backend), is marked Incremental, stays
// within 2% of the cold-run modularity, and is itself cached — the SAME
// variant again is an exact hit.
func TestCacheDeltaRouting(t *testing.T) {
	c, pool := newCachedPool(t, grappolo.DeltaEdits(8))
	base := grappolo.FromEdges(10, cliquePairEdges(), 1)
	// Two inserted edges plus one brand-new vertex 10 joining the second
	// clique: well inside the budget, not reachable without growth.
	variantEdges := append(cliquePairEdges(),
		grappolo.Edge{U: 0, V: 2, W: 0.5}, // weight increase on an existing pair
		grappolo.Edge{U: 10, V: 5, W: 1},
		grappolo.Edge{U: 10, V: 6, W: 1},
	)
	variant := grappolo.FromEdges(11, variantEdges, 1)
	ctx := context.Background()

	if _, err := c.Detect(ctx, base); err != nil {
		t.Fatal(err)
	}
	ledAfterBase := pool.Stats().Led

	res, err := c.Detect(ctx, variant)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Stats().Led != ledAfterBase {
		t.Fatalf("delta-routable request ran the backend engine (Led %d -> %d)", ledAfterBase, pool.Stats().Led)
	}
	if !res.Incremental {
		t.Error("delta-routed result must be marked Incremental")
	}
	if len(res.Membership) != 11 {
		t.Fatalf("membership covers %d vertices, want 11", len(res.Membership))
	}
	if s := c.Stats(); s.DeltaRouted != 1 {
		t.Errorf("DeltaRouted = %d, want 1", s.DeltaRouted)
	}

	// Quality pin: within 2% of a cold run on the variant.
	coldPool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coldPool.Detect(ctx, variant)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Modularity <= 0 {
		t.Fatalf("degenerate cold reference Q=%v", cold.Modularity)
	}
	if res.Modularity < cold.Modularity*0.98 {
		t.Errorf("delta-routed Q=%v below 98%% of cold Q=%v", res.Modularity, cold.Modularity)
	}
	// And the reported modularity must actually score the returned
	// membership on the variant graph.
	scored, err := grappolo.Modularity(variant, res.Membership, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(math.Abs(scored-res.Modularity) <= 1e-9) {
		t.Errorf("reported Q=%v but membership scores %v on the variant", res.Modularity, scored)
	}

	// The routed result was admitted: the same variant again is an exact hit.
	hits := c.Stats().Hits
	again, err := c.Detect(ctx, variant)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Hits != hits+1 {
		t.Error("re-uploading the routed variant should be an exact hit")
	}
	if math.Float64bits(again.Modularity) != math.Float64bits(res.Modularity) {
		t.Error("cached delta result must be served bit-identically")
	}
}

// TestCacheDeltaNotRoutable pins the conservative side: deletions and
// rewires fall through to the backend even when the shape gates pass.
func TestCacheDeltaNotRoutable(t *testing.T) {
	c, pool := newCachedPool(t, grappolo.DeltaEdits(8))
	base := grappolo.FromEdges(10, cliquePairEdges(), 1)
	// Same vertex count, same edge count, same total weight — one edge
	// moved. Insert-only routing cannot express it.
	rewired := cliquePairEdges()
	rewired[len(rewired)-1] = grappolo.Edge{U: 3, V: 6, W: 1}
	gRewired := grappolo.FromEdges(10, rewired, 1)
	ctx := context.Background()
	if _, err := c.Detect(ctx, base); err != nil {
		t.Fatal(err)
	}
	led := pool.Stats().Led
	if _, err := c.Detect(ctx, gRewired); err != nil {
		t.Fatal(err)
	}
	if pool.Stats().Led != led+1 {
		t.Errorf("rewired graph must run cold (Led %d -> %d, want +1)", led, pool.Stats().Led)
	}
	if s := c.Stats(); s.DeltaRouted != 0 {
		t.Errorf("DeltaRouted = %d, want 0", s.DeltaRouted)
	}
}

// TestCacheShardedDeltaResetsIncremental is the regression test for a
// recycled Result leaking its Incremental flag through a Sharded backend:
// one client sends a base graph, a delta-routed one-edge variant (marked
// Incremental), then a distinct graph, whose cold sharded result must not
// be marked Incremental — neither as returned nor as cached.
func TestCacheShardedDeltaResetsIncremental(t *testing.T) {
	c := newCache(t, newSharded(t, 1, grappolo.WithShards(2)), grappolo.DeltaEdits(8))
	base := grappolo.FromEdges(10, cliquePairEdges(), 1)
	variant := grappolo.FromEdges(10, append(cliquePairEdges(), grappolo.Edge{U: 0, V: 7, W: 1}), 1)
	other := grappolo.FromEdges(200, ringEdges(200, 0), 1)
	ctx := context.Background()
	var res *grappolo.Result
	var err error
	for _, step := range []struct {
		tag         string
		g           *grappolo.Graph
		incremental bool
	}{
		{"base", base, false},
		{"one-edge variant", variant, true},
		{"distinct graph", other, false},
	} {
		if res, err = c.DetectInto(ctx, step.g, res); err != nil {
			t.Fatal(err)
		}
		if res.Incremental != step.incremental {
			t.Fatalf("%s: Incremental = %v, want %v", step.tag, res.Incremental, step.incremental)
		}
	}
	hit, err := c.Detect(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Incremental {
		t.Error("cached cold result served as Incremental")
	}
	if st := c.Stats(); st.DeltaRouted != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 delta-routed request and 1 hit", st)
	}
}

// TestNewCacheConfig pins constructor validation.
func TestNewCacheConfig(t *testing.T) {
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, nilBackend := range []grappolo.Detecter{nil, (*grappolo.Pool)(nil), (*grappolo.Sharded)(nil)} {
		if _, err := grappolo.NewCache(nilBackend); err == nil {
			t.Errorf("nil backend %T accepted", nilBackend)
		}
	}
	if _, err := grappolo.NewCache(pool, grappolo.CacheTTL(-time.Second)); err == nil {
		t.Error("negative TTL accepted")
	}
	if _, err := grappolo.NewCache(pool, grappolo.CacheBytes(0)); err == nil {
		t.Error("zero byte budget accepted")
	}
	cpm, err := grappolo.NewPool(1, grappolo.Workers(1), grappolo.CPM(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grappolo.NewCache(cpm, grappolo.DeltaEdits(4)); err == nil {
		t.Error("CPM backend with DeltaEdits accepted — the overlay maintains modularity")
	}
	if _, err := grappolo.NewCache(cpm); err != nil {
		t.Errorf("CPM backend without delta routing should be cacheable: %v", err)
	}
	// Guard composes over a Cache.
	cached, err := grappolo.NewCache(pool)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grappolo.NewGuard(cached); err != nil {
		t.Errorf("NewGuard over a Cache: %v", err)
	}
}

// TestCacheRaceStress hammers a Guard(Cache(Pool)) stack from many
// goroutines mixing exact repeats, delta-routable variants and a distinct
// graph, checking every served result is complete and internally
// consistent. Run with -race this is the concurrency gate for the store.
func TestCacheRaceStress(t *testing.T) {
	pool, err := grappolo.NewPool(2, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := grappolo.NewCache(pool, grappolo.DeltaEdits(8), grappolo.CacheTTL(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	gd, err := grappolo.NewGuard(c)
	if err != nil {
		t.Fatal(err)
	}
	base := grappolo.FromEdges(10, cliquePairEdges(), 1)
	variant := grappolo.FromEdges(10, append(cliquePairEdges(),
		grappolo.Edge{U: 1, V: 3, W: 0.25}, grappolo.Edge{U: 7, V: 9, W: 0.25}), 1)
	other := generate.MustGenerate(generate.RGG, generate.Small, 3, 1)
	graphs := []*grappolo.Graph{base, variant, other, base, variant}

	const workers = 8
	const iters = 40
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var res *grappolo.Result
			for i := 0; i < iters; i++ {
				g := graphs[(w+i)%len(graphs)]
				var err error
				res, err = gd.DetectInto(ctx, g, res)
				if err != nil {
					t.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
				if len(res.Membership) != g.N() {
					t.Errorf("worker %d iter %d: membership %d != n %d", w, i, len(res.Membership), g.N())
					return
				}
				for _, m := range res.Membership {
					if m < 0 || int(m) >= g.N() {
						t.Errorf("worker %d iter %d: label %d out of range", w, i, m)
						return
					}
				}
				if !res.Incremental && res.NumCommunities <= 0 {
					t.Errorf("worker %d iter %d: degenerate non-incremental result", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits == 0 {
		t.Error("stress mix produced no cache hits")
	}
	if s.Hits+s.Misses != workers*iters {
		t.Errorf("hits %d + misses %d != %d requests", s.Hits, s.Misses, workers*iters)
	}
}

// TestStreamInvalidatesCache pins the NewStream-overlay invalidation hook:
// once a stream seeded from g applies a batch, the OnApply callback drops
// g's cache entry, so the next Detect re-runs instead of serving a result
// that no longer describes the live stream.
func TestStreamInvalidatesCache(t *testing.T) {
	c, pool := newCachedPool(t)
	seed := grappolo.FromEdges(10, cliquePairEdges(), 1)
	ctx := context.Background()
	if _, err := c.Detect(ctx, seed); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("entries = %d, want 1", c.Len())
	}
	s, err := grappolo.NewStream(seed, []grappolo.Option{grappolo.Workers(1)})
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	s.OnApply(func() {
		fired++
		c.Invalidate(seed)
	})
	if err := s.AddEdge(0, 7, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("OnApply hook never fired")
	}
	if c.Len() != 0 {
		t.Fatalf("entries = %d after overlay drift, want 0", c.Len())
	}
	led := pool.Stats().Led
	if _, err := c.Detect(ctx, seed); err != nil {
		t.Fatal(err)
	}
	if pool.Stats().Led != led+1 {
		t.Error("post-invalidation Detect must re-run the engine")
	}
}

// TestStreamAddEdgeRejectsBadWeights is the regression test for the
// streaming-overlay weight bug: NaN slipped past the old `w <= 0` guard and
// non-positive weights were silently coerced to 1, corrupting the live
// modularity bookkeeping. All of them must now fail fast with
// ErrBadEdgeWeight, before touching the overlay.
func TestStreamAddEdgeRejectsBadWeights(t *testing.T) {
	seed := grappolo.FromEdges(10, cliquePairEdges(), 1)
	s, err := grappolo.NewStream(seed, []grappolo.Option{grappolo.Workers(1)})
	if err != nil {
		t.Fatal(err)
	}
	q := s.Modularity()
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -3} {
		err := s.AddEdge(0, 7, w)
		if !errors.Is(err, grappolo.ErrBadEdgeWeight) {
			t.Errorf("AddEdge(w=%v) = %v, want ErrBadEdgeWeight", w, err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Modularity(); got != q {
		t.Errorf("rejected edges changed the overlay: Q %v -> %v", q, got)
	}
	if s.BatchApplies() != 0 {
		t.Errorf("BatchApplies = %d, want 0 (nothing valid was buffered)", s.BatchApplies())
	}
}

// TestStreamRejectsBadInput pins the Stream's input contract: a nil seed,
// a seed whose total edge weight is infinite, an edge that would make the
// stream's total edge weight infinite (buffered edges counted) and a
// negative endpoint all end in typed errors and leave the stream as it was.
// A run on an infinite total never ends, so each case runs under a 10 s
// timer and reports what it found wrong as an error.
func TestStreamRejectsBadInput(t *testing.T) {
	huge := math.MaxFloat64
	newPath := func(batch int) (*grappolo.Stream, error) {
		g := grappolo.FromEdges(3, []grappolo.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}}, 1)
		return grappolo.NewStream(g, []grappolo.Option{grappolo.Workers(1)}, grappolo.BatchSize(batch))
	}
	cases := map[string]func() error{
		"nil seed": func() error {
			if _, err := grappolo.NewStream(nil, nil); !errors.Is(err, grappolo.ErrNilGraph) {
				return fmt.Errorf("NewStream(nil) = %v, want ErrNilGraph", err)
			}
			return nil
		},
		"infinite seed": func() error {
			g := grappolo.FromEdges(3, []grappolo.Edge{{U: 0, V: 1, W: huge}, {U: 1, V: 2, W: huge}}, 1)
			var ie *grappolo.InputError
			if _, err := grappolo.NewStream(g, nil); !errors.As(err, &ie) || ie.Arg != "graph" {
				return fmt.Errorf("NewStream(+Inf total) = %v, want an *InputError naming graph", err)
			}
			return nil
		},
		"infinite edge": func() error {
			s, err := newPath(1)
			if err != nil {
				return err
			}
			q := s.Modularity()
			for _, e := range [][2]int32{{0, 2}, {0, 1}} {
				if err := s.AddEdge(e[0], e[1], huge); !errors.Is(err, grappolo.ErrBadEdgeWeight) {
					return fmt.Errorf("AddEdge(%d, %d, MaxFloat64) = %v, want ErrBadEdgeWeight", e[0], e[1], err)
				}
			}
			if w := s.Snapshot().TotalWeight(); w != 4 {
				return fmt.Errorf("total edge weight %v after refused edges, want 4", w)
			}
			if got := s.Modularity(); got != q {
				return fmt.Errorf("refused edges changed Q: %v -> %v", q, got)
			}
			return nil
		},
		"infinite buffered total": func() error {
			s, err := newPath(8)
			if err != nil {
				return err
			}
			if err := s.AddEdge(0, 0, 1e308); err != nil {
				return err
			}
			if err := s.AddEdge(2, 2, 1e308); !errors.Is(err, grappolo.ErrBadEdgeWeight) {
				return fmt.Errorf("second 1e308 self-loop = %v, want ErrBadEdgeWeight", err)
			}
			if err := s.Flush(); err != nil {
				return err
			}
			if q := s.Modularity(); math.IsNaN(q) || math.IsInf(q, 0) {
				return fmt.Errorf("Q = %v after flushing the admitted edge", q)
			}
			return nil
		},
		"negative id": func() error {
			s, err := newPath(1)
			if err != nil {
				return err
			}
			var ie *grappolo.InputError
			for _, e := range [][2]int32{{-1, 2}, {0, -2}} {
				err := s.AddEdge(e[0], e[1], 1)
				if !errors.Is(err, grappolo.ErrInvalidInput) || !errors.As(err, &ie) || ie.Arg != "edge" {
					return fmt.Errorf("AddEdge(%d, %d, 1) = %v, want an *InputError naming edge", e[0], e[1], err)
				}
			}
			if s.N() != 3 || s.BatchApplies() != 0 {
				return fmt.Errorf("refused edges changed the stream: N %d, %d batches", s.N(), s.BatchApplies())
			}
			return nil
		},
	}
	for name, check := range cases {
		done := make(chan error, 1)
		go func() { done <- check() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no return within 10 s", name)
		}
	}
}

// TestStreamFlushCtxSurfacesErrors is the regression test for the silent
// full-refresh: a canceled context during the escalated re-detection now
// surfaces through the Stream instead of being swallowed.
func TestStreamFlushCtxSurfacesErrors(t *testing.T) {
	seed := grappolo.FromEdges(10, cliquePairEdges(), 1)
	s, err := grappolo.NewStream(seed, []grappolo.Option{grappolo.Workers(1)},
		grappolo.RefreshFraction(1e-9)) // any touched vertex escalates to a full run
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(0, 7, 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.FlushCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("FlushCtx(canceled) = %v, want context.Canceled", err)
	}
	runs := s.FullRuns()
	// The refresh is still owed: a live-context flush completes it.
	if err := s.FlushCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.FullRuns() != runs+1 {
		t.Errorf("FullRuns = %d after recovery flush, want %d", s.FullRuns(), runs+1)
	}
}

// TestCacheInvalidateAll pins the bulk-invalidation accounting.
func TestCacheInvalidateAll(t *testing.T) {
	c, _ := newCachedPool(t)
	ctx := context.Background()
	for seed := int64(0); seed < 3; seed++ {
		g := grappolo.FromEdges(200, ringEdges(200, float64(seed)/4), 1)
		if _, err := c.Detect(ctx, g); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.InvalidateAll(); n != 3 {
		t.Errorf("InvalidateAll = %d, want 3", n)
	}
	if c.Len() != 0 || c.Stats().Bytes != 0 {
		t.Errorf("cache not empty after InvalidateAll: %s", fmt.Sprint(c))
	}
}
