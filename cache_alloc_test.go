package grappolo_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"grappolo"
	"grappolo/internal/generate"
)

// TestCacheHitZeroAllocs extends the serving-path allocation gate to the
// cache: a warm exact hit — memoized fingerprint and strong-hash loads,
// store lookup, LRU bump, and the copy-out into the caller's recycled
// Result — performs ZERO allocations. This is the contract that makes the
// cache safe to put in front of every request: a hit costs table work, not
// garbage.
func TestCacheHitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 1)
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := grappolo.NewCache(pool)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := c.Detect(ctx, g) // cold: populate the entry
	if err != nil {
		t.Fatal(err)
	}
	res, err = c.DetectInto(ctx, g, res) // settle the recycled Result's shape
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		res, err = c.DetectInto(ctx, g, res)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("warm Cache.DetectInto hit allocates %v times per request, want 0", allocs)
	}
	if res.NumCommunities <= 1 || res.Modularity <= 0 {
		t.Fatalf("degenerate result nc=%d Q=%v", res.NumCommunities, res.Modularity)
	}
	if led := pool.Stats().Led; led != 1 {
		t.Errorf("Led = %d, want 1 (only the cold run touches an engine)", led)
	}

	// Alternating between two resident graphs stays zero-alloc too: the
	// per-Graph memoized hashes have no single-slot cache to thrash.
	// Separate recycled Results per graph keep the copy-out shape stable.
	g2 := generate.MustGenerate(generate.RGG, generate.Small, 1, 1)
	res2, err := c.Detect(ctx, g2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err = c.DetectInto(ctx, g2, res2)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(4, func() {
		if res, err = c.DetectInto(ctx, g, res); err != nil {
			return
		}
		res2, err = c.DetectInto(ctx, g2, res2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("warm alternating two-graph Cache.DetectInto hits allocate %v times per round, want 0", allocs)
	}
	if led := pool.Stats().Led; led != 2 {
		t.Errorf("Led = %d, want 2 (one cold run per graph)", led)
	}
}

// TestCacheWarmMissZeroAllocs pins the miss side of the gate on a
// retain-nothing Cache: a warm same-shape miss — store lookup, run record
// checkout from the free list, pool admission, the full detection pipeline
// into the caller's recycled Result, the skipped retained copy, and the
// run's seal and recycle — performs ZERO allocations. Single worker:
// multi-worker sweeps inherently allocate goroutines.
func TestCacheWarmMissZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 1)
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, pool, retainNothing)
	ctx := context.Background()
	res, err := c.Detect(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err = c.DetectInto(ctx, g, res) // second warm pass settles the arenas
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		res, err = c.DetectInto(ctx, g, res)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("warm same-shape Cache.DetectInto miss (leader path) allocates %v times per request, want 0", allocs)
	}
	if res.NumCommunities <= 1 || res.Modularity <= 0 {
		t.Fatalf("degenerate result nc=%d Q=%v", res.NumCommunities, res.Modularity)
	}

	// Alternating between two graphs must stay zero-alloc on the miss
	// path too.
	g2 := generate.MustGenerate(generate.RGG, generate.Small, 1, 1)
	res2, err := c.Detect(ctx, g2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // settle both arenas
		if res, err = c.DetectInto(ctx, g, res); err != nil {
			t.Fatal(err)
		}
		if res2, err = c.DetectInto(ctx, g2, res2); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(4, func() {
		if res, err = c.DetectInto(ctx, g, res); err != nil {
			return
		}
		res2, err = c.DetectInto(ctx, g2, res2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("warm alternating two-graph Cache.DetectInto misses allocate %v times per round, want 0", allocs)
	}
	if st := c.Stats(); st.Hits != 0 || st.Entries != 0 {
		t.Errorf("stats = %+v, want no hits and nothing retained", st)
	}
}

// TestCacheFollowerAllocsBounded pins the follower side: a coalesced
// waiter costs O(1) allocations — its join record and signal channel plus
// the copy-out bookkeeping — independent of graph size and of how many
// rounds run. Measured as a global allocation delta over many choreographed
// runs with recycled per-follower Results, so per-round growth (an O(n)
// slice allocated per follower, say) would blow the bound immediately.
func TestCacheFollowerAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 1)
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, pool, retainNothing)
	ctx := context.Background()

	const followers = 4
	const rounds = 20
	followerRes := make([]*grappolo.Result, followers)
	leaderRes, err := c.Detect(ctx, g)
	if err != nil {
		t.Fatal(err)
	}

	round := func() {
		if err := pool.HoldEnginePermit(ctx); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			leaderRes, err = c.DetectInto(ctx, g, leaderRes)
			if err != nil {
				t.Error(err)
			}
		}()
		for pool.QueuedWaiters() != 1 {
			runtime.Gosched()
		}
		base := c.JoinedFollowers()
		for i := 0; i < followers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var err error
				followerRes[i], err = c.DetectInto(ctx, g, followerRes[i])
				if err != nil {
					t.Error(err)
				}
			}(i)
		}
		for c.JoinedFollowers() != base+followers {
			runtime.Gosched()
		}
		pool.ReleaseEnginePermit()
		wg.Wait()
	}
	round() // warm every path (follower Results, free lists)
	round()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		round()
	}
	runtime.ReadMemStats(&after)
	perFollower := float64(after.Mallocs-before.Mallocs) / float64(rounds*followers)
	// The real warm cost is ~10 small allocations per follower (goroutine +
	// join record + channel + waitgroup bookkeeping); 64 leaves slack for
	// runtime noise while still catching any O(graph) copy regression
	// (membership alone is >1000 entries here).
	if perFollower > 64 {
		t.Errorf("follower path averages %.1f allocs/request, want O(1) (<= 64)", perFollower)
	}
}

// BenchmarkCacheDetect compares the serving tiers the cache layers over a
// pool: cold (every request invalidated first — the uncached baseline plus
// admission overhead), hit (exact repeat served by copy-out), and delta (a
// small perturbation routed onto the seeded incremental maintainer instead
// of a cold run). hit/cold is the caching win; delta sits between them and
// is the paper's real-time future-work item as a serving fast path. Under
// duplicate concurrent load, uncoalesced (each request runs privately on a
// bare Pool) against coalesced (a retain-nothing Cache in front of the same
// pool: concurrent requesters share runs, nothing is served from memory)
// is the in-flight coalescing win.
func BenchmarkCacheDetect(b *testing.B) {
	g := generate.MustGenerate(generate.RGG, generate.ScaleFromEnv(), 0, 0)
	onePool := func(b *testing.B, copts ...grappolo.CacheOption) *grappolo.Cache {
		pool, err := grappolo.NewPool(1, grappolo.Workers(0))
		if err != nil {
			b.Fatal(err)
		}
		return newCache(b, pool, copts...)
	}
	ctx := context.Background()
	b.Run("cold", func(b *testing.B) {
		c := onePool(b)
		var res *grappolo.Result
		var err error
		if res, err = c.Detect(ctx, g); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.InvalidateAll()
			if res, err = c.DetectInto(ctx, g, res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		c := onePool(b)
		var res *grappolo.Result
		var err error
		if res, err = c.Detect(ctx, g); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err = c.DetectInto(ctx, g, res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("delta", func(b *testing.B) {
		c := onePool(b, grappolo.DeltaEdits(8))
		// A two-edge perturbation of g: within the edit budget, so every
		// iteration (after invalidating the variant's own entry) re-routes
		// the diff onto a maintainer seeded from the base entry.
		n := int32(g.N())
		var edges []grappolo.Edge
		for u := int32(0); u < n; u++ {
			nbrs, ws := g.Neighbors(int(u))
			for k, v := range nbrs {
				if v >= u {
					edges = append(edges, grappolo.Edge{U: u, V: v, W: ws[k]})
				}
			}
		}
		variant := grappolo.FromEdges(g.N(), append(edges,
			grappolo.Edge{U: 0, V: n / 2, W: 0.5},
			grappolo.Edge{U: 1, V: n/2 + 1, W: 0.5}), 0)
		var res *grappolo.Result
		var err error
		if _, err = c.Detect(ctx, g); err != nil {
			b.Fatal(err)
		}
		if res, err = c.Detect(ctx, variant); err != nil {
			b.Fatal(err)
		}
		if !res.Incremental {
			b.Fatal("variant was not delta-routed; benchmark would measure the wrong tier")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Invalidate(variant)
			if res, err = c.DetectInto(ctx, variant, res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncoalesced", func(b *testing.B) {
		duplicateLoad(b, g, warmPool(b, g))
	})
	b.Run("coalesced", func(b *testing.B) {
		duplicateLoad(b, g, newCache(b, warmPool(b, g), retainNothing))
	})
}

// warmPool returns a GOMAXPROCS-engine single-worker pool with every
// engine warmed on g.
func warmPool(b *testing.B, g *grappolo.Graph) *grappolo.Pool {
	pool, err := grappolo.NewPool(runtime.GOMAXPROCS(0), grappolo.Workers(1))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < pool.Size(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.Detect(ctx, g); err != nil {
				b.Error(err)
			}
		}()
	}
	wg.Wait()
	return pool
}

// duplicateLoad drives 8×GOMAXPROCS concurrent requesters of the same
// graph through d — duplicate overload on any core count.
func duplicateLoad(b *testing.B, g *grappolo.Graph, d grappolo.Detecter) {
	ctx := context.Background()
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var res *grappolo.Result
		var err error
		for pb.Next() {
			if res, err = d.DetectInto(ctx, g, res); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
