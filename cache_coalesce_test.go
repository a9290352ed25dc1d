package grappolo_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"grappolo"
	"grappolo/internal/core"
	"grappolo/internal/generate"
)

// waitFor spins until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// mustMatch asserts res is bit-identical to the one-shot reference for its
// graph — the coalescing contract: a coalesced caller must be unable to
// tell whether its result came from a private run or a shared one.
func mustMatch(t *testing.T, tag string, res, want *grappolo.Result) {
	t.Helper()
	if res == nil {
		t.Fatalf("%s: nil result", tag)
	}
	if res.Modularity != want.Modularity ||
		res.NumCommunities != want.NumCommunities ||
		res.TotalIterations != want.TotalIterations {
		t.Fatalf("%s: Q=%v nc=%d iters=%d, want Q=%v nc=%d iters=%d",
			tag, res.Modularity, res.NumCommunities, res.TotalIterations,
			want.Modularity, want.NumCommunities, want.TotalIterations)
	}
	if len(res.Membership) != len(want.Membership) {
		t.Fatalf("%s: membership length %d, want %d (cross-wired result?)",
			tag, len(res.Membership), len(want.Membership))
	}
	for v := range want.Membership {
		if res.Membership[v] != want.Membership[v] {
			t.Fatalf("%s: membership differs at vertex %d", tag, v)
		}
	}
}

// cliqueRing builds a small distinct-shaped test graph: cliques of the
// given size arranged in a ring. Different (cliques, size) pairs yield
// structurally distinct graphs with distinct detection results.
func cliqueRing(t *testing.T, cliques, size int) *grappolo.Graph {
	t.Helper()
	b := grappolo.NewBuilder(cliques * size)
	for c := 0; c < cliques; c++ {
		base := int32(c * size)
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				b.AddEdge(base+int32(i), base+int32(j), 1)
			}
		}
		next := int32(((c + 1) % cliques) * size)
		b.AddEdge(base, next, 0.5)
	}
	return b.Build(2)
}

// newCache wraps backend in a Cache with copts, failing the test on error.
func newCache(t testing.TB, backend grappolo.Detecter, copts ...grappolo.CacheOption) *grappolo.Cache {
	t.Helper()
	c, err := grappolo.NewCache(backend, copts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// retainNothing is a byte budget below any entry's size: the Cache keeps
// no result across time, so every request misses and only the in-flight
// coalescing remains — Led + Coalesced then sums to the request count.
var retainNothing = grappolo.CacheBytes(1)

// TestCacheCoalescesConcurrentMisses is the acceptance pin: 8 concurrent
// misses of the SAME graph perform exactly ONE backend run, and every
// caller's result is bit-identical to a one-shot detection. The pool's
// only permit is held so the leader queues while the other seven coalesce
// behind it deterministically. It runs over a Pool backend and over a
// Sharded one, whose single run checks out as many engines as one sharded
// detection on a fresh pool.
func TestCacheCoalescesConcurrentMisses(t *testing.T) {
	g := generate.MustGenerate(generate.RGG, generate.Small, 0, 4)
	t.Run("Pool", func(t *testing.T) {
		pool, err := grappolo.NewPool(1, grappolo.Workers(4))
		if err != nil {
			t.Fatal(err)
		}
		coalesceEight(t, newCache(t, pool), pool, g, core.Run(g, core.Options{Workers: 4}), 1)
	})
	t.Run("Sharded", func(t *testing.T) {
		ref := newSharded(t, 1, grappolo.WithShards(2))
		want, err := ref.Detect(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := grappolo.NewPool(1, grappolo.Workers(2))
		if err != nil {
			t.Fatal(err)
		}
		sh, err := grappolo.NewSharded(pool, grappolo.WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		coalesceEight(t, newCache(t, sh), pool, g, want, ref.Stats().Led)
	})
}

// coalesceEight sends 8 concurrent identical misses through c while the
// test holds pool's only permit, then checks that they shared one backend
// run of wantLed engine checkouts and got independent copies of want.
func coalesceEight(t *testing.T, c *grappolo.Cache, pool *grappolo.Pool, g *grappolo.Graph, want *grappolo.Result, wantLed int64) {
	if err := pool.HoldEnginePermit(context.Background()); err != nil {
		t.Fatal(err)
	}
	const requests = 8
	results := make([]*grappolo.Result, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Detect(context.Background(), g)
		}(i)
	}
	// 1 leader queued for an engine + 7 followers coalesced behind it.
	waitFor(t, "8 requests to attach (1 leader queued, 7 followers)", func() bool {
		return c.JoinedFollowers() == requests-1 && pool.QueuedWaiters() >= 1
	})
	pool.ReleaseEnginePermit()
	wg.Wait()

	for i := 0; i < requests; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		mustMatch(t, fmt.Sprintf("request %d", i), results[i], want)
	}
	// Results are independent copies, not views of one shared allocation.
	for i := 1; i < requests; i++ {
		if &results[i].Membership[0] == &results[0].Membership[0] {
			t.Fatal("coalesced results share membership storage")
		}
	}
	if led := pool.Stats().Led; led != wantLed {
		t.Fatalf("engine checkouts = %d, want %d: one backend run for %d coalesced requests", led, wantLed, requests)
	}
	if st := c.Stats(); st.Coalesced != requests-1 || st.Misses != requests {
		t.Fatalf("stats = %+v, want Coalesced=%d of %d misses", st, requests-1, requests)
	}
}

// TestCacheDistinctGraphsDoNotCoalesce pins the complement: requests for
// structurally different graphs each get their own run and their own
// (never cross-wired) result.
func TestCacheDistinctGraphsDoNotCoalesce(t *testing.T) {
	a := cliqueRing(t, 4, 5)
	c := cliqueRing(t, 6, 4)
	wantA := core.Run(a, core.Options{Workers: 2})
	wantC := core.Run(c, core.Options{Workers: 2})

	pool, err := grappolo.NewPool(2, grappolo.Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	cache := newCache(t, pool)
	resA, errA := cache.Detect(context.Background(), a)
	resC, errC := cache.Detect(context.Background(), c)
	if errA != nil || errC != nil {
		t.Fatal(errA, errC)
	}
	mustMatch(t, "graph A", resA, wantA)
	mustMatch(t, "graph C", resC, wantC)
	if led, st := pool.Stats().Led, cache.Stats(); led != 2 || st.Coalesced != 0 {
		t.Fatalf("Led = %d, stats = %+v, want 2 runs and 0 coalesced", led, st)
	}
}

// TestCacheCoalesceStressNeverCrossWires hammers a retain-nothing Cache
// from many goroutines over several graph shapes: every caller's result
// must be bit-identical to the one-shot reference FOR ITS GRAPH, no matter
// how requests coalesce, and the leader/follower accounting must add up to
// the request count.
func TestCacheCoalesceStressNeverCrossWires(t *testing.T) {
	inputs := []generate.Input{generate.CNR, generate.MG1, generate.EuropeOSM}
	graphs := make([]*grappolo.Graph, len(inputs))
	wants := make([]*grappolo.Result, len(inputs))
	for i, in := range inputs {
		graphs[i] = generate.MustGenerate(in, generate.Small, 0, 4)
		wants[i] = core.Run(graphs[i], core.Options{Workers: 2})
	}

	pool, err := grappolo.NewPool(2, grappolo.Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, pool, retainNothing)
	const goroutines = 10
	const perG = 8
	ctx := context.Background()
	var wg sync.WaitGroup
	failed := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var res *grappolo.Result
			var err error
			for r := 0; r < perG; r++ {
				// Consecutive goroutines hit the same graph at the same
				// time (duplicate load), while the mix still rotates
				// through all shapes to chase cross-wiring.
				gi := (w/2 + r) % len(graphs)
				if r%2 == 0 {
					res, err = c.Detect(ctx, graphs[gi])
				} else {
					res, err = c.DetectInto(ctx, graphs[gi], res)
				}
				if err != nil {
					failed <- fmt.Errorf("goroutine %d req %d on %s: %v", w, r, inputs[gi], err)
					return
				}
				want := wants[gi]
				if res.Modularity != want.Modularity ||
					res.NumCommunities != want.NumCommunities ||
					res.TotalIterations != want.TotalIterations ||
					len(res.Membership) != len(want.Membership) {
					failed <- fmt.Errorf("goroutine %d req %d on %s: result does not match its graph's reference (cross-wired?)", w, r, inputs[gi])
					return
				}
				for v := range want.Membership {
					if res.Membership[v] != want.Membership[v] {
						failed <- fmt.Errorf("goroutine %d req %d on %s: membership differs at vertex %d", w, r, inputs[gi], v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(failed)
	for err := range failed {
		t.Fatal(err)
	}
	ps, cs := pool.Stats(), c.Stats()
	if ps.Led+cs.Coalesced != goroutines*perG {
		t.Fatalf("Led(%d) + Coalesced(%d) != %d requests", ps.Led, cs.Coalesced, goroutines*perG)
	}
	if ps.Canceled != 0 {
		t.Fatalf("Canceled = %d with no cancellations issued", ps.Canceled)
	}
	if pool.AvailablePermits() != pool.Size() {
		t.Fatalf("leaked permits: %d available, want %d", pool.AvailablePermits(), pool.Size())
	}
}

// TestCacheAdmissionOrderFairness is the fairness property pin: with the
// pool overloaded (single engine, permit held by the test), cache misses
// for DISTINCT graphs lead their own runs and are admitted one at a time in a known order, a victim is
// canceled while queued, and the cascade is then released one engine grant
// at a time — interleaved test-owned holds pause the pipeline after every
// run, making the completion order observation deterministic. Completion
// order must equal admission order with the victim skipped; the victim must
// return its ctx.Err() promptly; and no permit or goroutine may leak.
func TestCacheAdmissionOrderFairness(t *testing.T) {
	const requests = 5
	const victim = 2
	startGoroutines := runtime.NumGoroutine()

	graphs := make([]*grappolo.Graph, requests)
	wants := make([]*grappolo.Result, requests)
	for i := range graphs {
		graphs[i] = cliqueRing(t, 3+i, 4)
		wants[i] = core.Run(graphs[i], core.Options{Workers: 1})
	}

	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, pool)
	if err := pool.HoldEnginePermit(context.Background()); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var order []int
	results := make([]*grappolo.Result, requests)
	done := make([]chan error, requests)
	holds := make([]chan struct{}, requests)
	ctxs := make([]context.Context, requests)
	cancels := make([]context.CancelFunc, requests)
	// Admission queue being built: [req0, hold0, req1, hold1, ...] — each
	// test-owned hold re-parks the pool right after the request before it
	// finishes, so exactly one request runs per release below.
	for i := 0; i < requests; i++ {
		ctxs[i], cancels[i] = context.WithCancel(context.Background())
		done[i] = make(chan error, 1)
		go func(i int) {
			res, err := c.Detect(ctxs[i], graphs[i])
			if err == nil {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				results[i] = res
			}
			done[i] <- err
		}(i)
		waitFor(t, fmt.Sprintf("request %d to queue", i), func() bool {
			return pool.QueuedWaiters() == 2*i+1
		})
		holds[i] = make(chan struct{})
		go func(i int) {
			if err := pool.HoldEnginePermit(context.Background()); err != nil {
				t.Error(err)
			}
			close(holds[i])
		}(i)
		waitFor(t, fmt.Sprintf("hold %d to queue", i), func() bool {
			return pool.QueuedWaiters() == 2*i+2
		})
	}

	// Cancel the victim while it is queued: it must return its own ctx
	// error promptly (well before any engine frees up) and pass its turn on.
	cancels[victim]()
	select {
	case err := <-done[victim]:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("victim error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter did not return promptly")
	}

	// Release the cascade one grant at a time. hold[i] closing proves the
	// engine went req0→hold0→req1→hold1→... in strict admission order; at
	// each pause exactly the non-victim requests 0..i have completed.
	pool.ReleaseEnginePermit()
	for i := 0; i < requests; i++ {
		<-holds[i]
		if i != victim {
			select {
			case err := <-done[i]:
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				mustMatch(t, fmt.Sprintf("request %d", i), results[i], wants[i])
			case <-time.After(10 * time.Second):
				t.Fatalf("request %d did not complete at its turn", i)
			}
		}
		pool.ReleaseEnginePermit()
	}

	mu.Lock()
	got := append([]int(nil), order...)
	mu.Unlock()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("completion order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completion order %v, want admission order %v (victim %d skipped)", got, want, victim)
		}
	}
	for _, c := range cancels {
		c()
	}

	// No permit leaked: the full capacity is available again...
	waitFor(t, "all permits returned", func() bool {
		return pool.AvailablePermits() == pool.Size() && pool.QueuedWaiters() == 0
	})
	if st := pool.Stats(); st.Canceled != 1 {
		t.Fatalf("Canceled = %d, want 1", st.Canceled)
	}
	// ...and no goroutine leaked (workers are per-call, runs fan out and
	// die with their leaders).
	waitFor(t, "goroutines to settle", func() bool {
		return runtime.NumGoroutine() <= startGoroutines+4
	})
}

// TestCacheFollowerCancelIsPromptAndLeakFree pins the follower side of
// the cancellation contract: a follower abandoning a still-queued run
// returns its own ctx.Err() immediately (it never held a permit, so none
// can leak) and the leader completes untouched.
func TestCacheFollowerCancelIsPromptAndLeakFree(t *testing.T) {
	g := cliqueRing(t, 4, 5)
	want := core.Run(g, core.Options{Workers: 1})
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, pool)
	if err := pool.HoldEnginePermit(context.Background()); err != nil {
		t.Fatal(err)
	}

	leaderDone := make(chan error, 1)
	var leaderRes *grappolo.Result
	go func() {
		var err error
		leaderRes, err = c.Detect(context.Background(), g)
		leaderDone <- err
	}()
	waitFor(t, "leader to queue", func() bool { return pool.QueuedWaiters() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, err := c.Detect(ctx, g)
		followerDone <- err
	}()
	waitFor(t, "follower to join", func() bool { return c.JoinedFollowers() == 1 })

	cancel()
	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled follower did not return promptly")
	}

	pool.ReleaseEnginePermit()
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	mustMatch(t, "leader", leaderRes, want)
	// The follower never reached the pool, so the pool saw one run and no
	// cancellation; the cache served no one by coalescing.
	if st := pool.Stats(); st.Led != 1 || st.Canceled != 0 {
		t.Fatalf("pool stats = %+v, want Led=1 Canceled=0", st)
	}
	if st := c.Stats(); st.Coalesced != 0 || st.Misses != 2 {
		t.Fatalf("cache stats = %+v, want Coalesced=0 of 2 misses", st)
	}
	if pool.AvailablePermits() != 1 {
		t.Fatal("permit leaked after follower cancellation")
	}
}

// TestCacheLeaderCancelPromotesFollower pins the leader side: when the
// leader of a run is canceled (here while queued for an engine), a live
// follower must not inherit the leader's error — it transparently retries,
// becomes the new leader, and completes with a correct result.
func TestCacheLeaderCancelPromotesFollower(t *testing.T) {
	g := cliqueRing(t, 5, 4)
	want := core.Run(g, core.Options{Workers: 1})
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, pool)
	if err := pool.HoldEnginePermit(context.Background()); err != nil {
		t.Fatal(err)
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.Detect(leaderCtx, g)
		leaderDone <- err
	}()
	waitFor(t, "leader to queue", func() bool { return pool.QueuedWaiters() == 1 })

	followerDone := make(chan error, 1)
	var followerRes *grappolo.Result
	go func() {
		var err error
		followerRes, err = c.Detect(context.Background(), g)
		followerDone <- err
	}()
	waitFor(t, "follower to join", func() bool { return c.JoinedFollowers() == 1 })

	cancelLeader()
	select {
	case err := <-leaderDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("leader error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled leader did not return promptly")
	}
	// The follower retries and re-queues as the new leader of its own run.
	waitFor(t, "follower to requeue as the new leader", func() bool {
		return pool.QueuedWaiters() == 1
	})
	pool.ReleaseEnginePermit()
	if err := <-followerDone; err != nil {
		t.Fatal(err)
	}
	mustMatch(t, "promoted follower", followerRes, want)
	if pool.AvailablePermits() != 1 {
		t.Fatal("permit leaked after leader cancellation")
	}
	// Accounting: the promoted follower completed by LEADING its own run,
	// so it counts toward Led, not Coalesced — Coalesced+Led stays the
	// number of completed requests.
	if led, st := pool.Stats().Led, c.Stats(); st.Coalesced != 0 || led != 1 {
		t.Fatalf("Led = %d, stats = %+v, want Coalesced=0 Led=1 after promotion", led, st)
	}
}
