//go:build faultinject

package grappolo_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grappolo"
	"grappolo/internal/faults"
)

// This file is the chaos layer of the robustness work: it builds only
// under the faultinject tag, arms seeded deterministic fault plans against
// the full serving stack (Guard → Cache → Pool → Engine), and asserts
// the stack's invariants hold while faults are striking — no leaked
// permits or goroutines, no cross-wired results, typed errors for every
// failure class, and full recovery once the plan is disarmed. Run with:
//
//	go test -race -tags faultinject -run 'Chaos|FaultInject' .

// armPlan installs plan and registers disarming as cleanup, so a failing
// assertion never leaks an armed plan into the next test.
func armPlan(t *testing.T, plan *faults.Plan) {
	t.Helper()
	faults.Arm(plan)
	t.Cleanup(func() { faults.Arm(nil) })
}

// resultMismatch is a goroutine-safe mustMatch: it reports the differences
// as a string ("" when bit-identical) instead of calling into testing.T,
// so chaos workers can record verdicts for the main goroutine to judge.
func resultMismatch(res, want *grappolo.Result) string {
	if res == nil {
		return "nil result"
	}
	if res.Modularity != want.Modularity ||
		res.NumCommunities != want.NumCommunities ||
		res.TotalIterations != want.TotalIterations {
		return fmt.Sprintf("Q=%v nc=%d iters=%d, want Q=%v nc=%d iters=%d",
			res.Modularity, res.NumCommunities, res.TotalIterations,
			want.Modularity, want.NumCommunities, want.TotalIterations)
	}
	if len(res.Membership) != len(want.Membership) {
		return fmt.Sprintf("membership length %d, want %d (cross-wired result?)",
			len(res.Membership), len(want.Membership))
	}
	for i := range res.Membership {
		if res.Membership[i] != want.Membership[i] {
			return fmt.Sprintf("membership[%d] = %d, want %d", i, res.Membership[i], want.Membership[i])
		}
	}
	return ""
}

// waitSettled waits for the goroutine count to drain back to (or below)
// the given baseline plus slack; the runtime needs a beat to reap exited
// goroutines, so this polls rather than asserting instantaneously.
func waitSettled(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC() // nudges reaping of exited goroutines
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d live, baseline %d", n, baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosGuardSoak drives mixed duplicate/unique traffic through the
// full stack while a seeded plan injects panics, latency, and forced
// cancellations at every probe site, then disarms and asserts the stack
// recovered completely. Every request outcome must fall into a typed
// class; anything else is a verdict failure.
func TestChaosGuardSoak(t *testing.T) {
	const (
		workers    = 8
		perWorker  = 25
		poolSize   = 2
		shedBudget = 5 * time.Second // a depth shed never waits; generous CI-scheduling slack
	)
	ctx := context.Background()
	graphs := []*grappolo.Graph{
		cliqueRing(t, 6, 5),
		cliqueRing(t, 8, 4),
		cliqueRing(t, 5, 8),
	}
	// Bit-identical references for both quality profiles, computed before
	// any plan is armed. The degraded reference is the documented degraded
	// profile layered on the pool's (default) options.
	wantFull := make([]*grappolo.Result, len(graphs))
	wantFast := make([]*grappolo.Result, len(graphs))
	for i, g := range graphs {
		var err error
		if wantFull[i], err = grappolo.Detect(ctx, g); err != nil {
			t.Fatal(err)
		}
		if wantFast[i], err = grappolo.Detect(ctx, g,
			grappolo.MaxPhases(2), grappolo.MaxIterations(8), grappolo.Thresholds(5e-2, 1e-3)); err != nil {
			t.Fatal(err)
		}
	}

	pool, err := grappolo.NewPool(poolSize)
	if err != nil {
		t.Fatal(err)
	}
	// MaxInFlight deliberately below the worker count and a slowed pool
	// serve (below) so the admission queue really builds: the soak must
	// exercise ALL outcome classes — degraded serves and depth sheds —
	// not just the happy path with sprinkled panics. The Cache retains
	// nothing, so every request misses and the engine probes fire once per
	// run, as they would on a bare pool.
	gd, err := grappolo.NewGuard(newCache(t, pool, retainNothing),
		grappolo.MaxInFlight(2),
		grappolo.MaxQueueDepth(3),
		grappolo.DetectDeadline(5*time.Second),
		grappolo.DegradeAtDepth(2))
	if err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	armPlan(t, &faults.Plan{
		Seed: 42,
		PanicEvery: func() (pe [faults.NumPoints]int) {
			pe[faults.EngineRun] = 7
			pe[faults.PoolServe] = 9
			pe[faults.CacheLead] = 11
			return
		}(),
		SlowEvery: func() (se [faults.NumPoints]int) {
			se[faults.PoolServe] = 2
			se[faults.CacheLead] = 5
			return
		}(),
		SlowNanos: int64(5 * time.Millisecond),
		CancelEvery: func() (ce [faults.NumPoints]int) {
			ce[faults.EngineBarrier] = 50
			return
		}(),
	})

	var succeeded, degraded, shed, faulted, ctxErrs atomic.Int64
	var maxShedNanos atomic.Int64
	var mu sync.Mutex
	var verdicts []string
	report := func(v string) {
		mu.Lock()
		verdicts = append(verdicts, v)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res *grappolo.Result
			for j := 0; j < perWorker; j++ {
				gi := (w + j) % len(graphs) // overlapping cycles: plenty of duplicates
				start := time.Now()
				out, err := gd.DetectInto(ctx, graphs[gi], res)
				elapsed := time.Since(start)
				switch {
				case err == nil:
					res = out
					want := wantFull[gi]
					if out.Degraded {
						want = wantFast[gi]
						degraded.Add(1)
					}
					if d := resultMismatch(out, want); d != "" {
						report(fmt.Sprintf("worker %d req %d (graph %d, degraded=%v): %s", w, j, gi, out.Degraded, d))
					}
					succeeded.Add(1)
				case errors.Is(err, grappolo.ErrOverloaded):
					shed.Add(1)
					for {
						cur := maxShedNanos.Load()
						if int64(elapsed) <= cur || maxShedNanos.CompareAndSwap(cur, int64(elapsed)) {
							break
						}
					}
				case errors.Is(err, grappolo.ErrEngineFault):
					faulted.Add(1)
				case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
					ctxErrs.Add(1)
				default:
					report(fmt.Sprintf("worker %d req %d: unclassified error %v", w, j, err))
				}
			}
		}()
	}
	wg.Wait()
	faults.Arm(nil)

	for _, v := range verdicts {
		t.Error(v)
	}
	total := succeeded.Load() + shed.Load() + faulted.Load() + ctxErrs.Load()
	if total != workers*perWorker {
		t.Errorf("classified %d outcomes, want %d", total, workers*perWorker)
	}
	t.Logf("soak: %d ok (%d degraded), %d shed, %d faulted, %d ctx errors",
		succeeded.Load(), degraded.Load(), shed.Load(), faulted.Load(), ctxErrs.Load())
	if max := time.Duration(maxShedNanos.Load()); max > shedBudget {
		t.Errorf("slowest shed took %v, want <= %v (shedding must stay prompt under faults)", max, shedBudget)
	}

	s := gd.Stats()
	if s.Shed != shed.Load() {
		t.Errorf("Stats().Shed = %d, workers observed %d", s.Shed, shed.Load())
	}
	if s.Degraded != degraded.Load() {
		t.Errorf("Stats().Degraded = %d, workers observed %d", s.Degraded, degraded.Load())
	}
	if s.Recovered > faulted.Load() {
		t.Errorf("Stats().Recovered = %d > %d fault outcomes", s.Recovered, faulted.Load())
	}

	// Recovery: zero leaked permits or admission slots, goroutines settle,
	// and a clean full-quality pass succeeds on every graph.
	if free := pool.AvailablePermits(); free != poolSize {
		t.Errorf("leaked engine permits: %d free, want %d", free, poolSize)
	}
	if q := gd.Queued(); q != 0 {
		t.Errorf("leaked admission waiters: %d queued", q)
	}
	waitSettled(t, baseline)
	for i, g := range graphs {
		out, err := gd.Detect(ctx, g)
		if err != nil {
			t.Fatalf("clean pass graph %d: %v", i, err)
		}
		if out.Degraded {
			t.Errorf("clean pass graph %d marked Degraded", i)
		}
		if d := resultMismatch(out, wantFull[i]); d != "" {
			t.Errorf("clean pass graph %d: %s", i, d)
		}
	}
}

// TestFaultInjectEngineRunPanic pins the quarantine chain for an injected
// panic at the engine-run probe: the Guard returns a typed fault carrying
// the Injected value, the pool quarantines the engine, nothing leaks, and
// disarming restores clean serving.
func TestFaultInjectEngineRunPanic(t *testing.T) {
	ctx := context.Background()
	pool, err := grappolo.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	gd, err := grappolo.NewGuard(pool)
	if err != nil {
		t.Fatal(err)
	}
	g := cliqueRing(t, 4, 5)
	armPlan(t, &faults.Plan{PanicEvery: func() (pe [faults.NumPoints]int) {
		pe[faults.EngineRun] = 1
		return
	}()})

	_, err = gd.Detect(ctx, g)
	if !errors.Is(err, grappolo.ErrEngineFault) {
		t.Fatalf("err = %v, want an ErrEngineFault match", err)
	}
	var fe *grappolo.EngineFaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %#v, want *EngineFaultError", err)
	}
	inj, ok := fe.Panic.(faults.Injected)
	if !ok || inj.Point != faults.EngineRun {
		t.Errorf("recovered panic = %#v, want Injected at EngineRun", fe.Panic)
	}
	if s := gd.Stats(); s.Recovered != 1 || s.Faulted != 1 {
		t.Errorf("Stats: Recovered=%d Faulted=%d, want 1 and 1", s.Recovered, s.Faulted)
	}
	if free := pool.AvailablePermits(); free != 1 {
		t.Errorf("leaked permit: %d free, want 1", free)
	}

	faults.Arm(nil)
	want, err := grappolo.Detect(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	out, err := gd.Detect(ctx, g)
	if err != nil {
		t.Fatalf("detect after disarm: %v", err)
	}
	if d := resultMismatch(out, want); d != "" {
		t.Errorf("post-disarm result: %s", d)
	}
}

// TestFaultInjectLeaderPanicPrePool pins the cache-lead probe: a panic
// struck BEFORE the leader reaches the pool must seal its run and surface
// as a typed fault, without consuming a pool permit or quarantining any
// engine (none was involved).
func TestFaultInjectLeaderPanicPrePool(t *testing.T) {
	ctx := context.Background()
	pool, err := grappolo.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	gd, err := grappolo.NewGuard(newCache(t, pool, retainNothing))
	if err != nil {
		t.Fatal(err)
	}
	g := cliqueRing(t, 4, 5)
	armPlan(t, &faults.Plan{PanicEvery: func() (pe [faults.NumPoints]int) {
		pe[faults.CacheLead] = 1
		return
	}()})

	_, err = gd.Detect(ctx, g)
	if !errors.Is(err, grappolo.ErrEngineFault) {
		t.Fatalf("err = %v, want an ErrEngineFault match", err)
	}
	var fe *grappolo.EngineFaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %#v, want *EngineFaultError", err)
	}
	if inj, ok := fe.Panic.(faults.Injected); !ok || inj.Point != faults.CacheLead {
		t.Errorf("recovered panic = %#v, want Injected at CacheLead", fe.Panic)
	}
	if s := pool.Stats(); s.Faulted != 0 || s.Led != 0 {
		t.Errorf("pre-pool panic touched the pool: %+v", s)
	}
	if free := pool.AvailablePermits(); free != 1 {
		t.Errorf("pre-pool panic consumed a permit: %d free, want 1", free)
	}

	faults.Arm(nil)
	if _, err := gd.Detect(ctx, g); err != nil {
		t.Fatalf("detect after disarm: %v", err)
	}
}

// TestFaultInjectBarrierCancel pins the forced-cancellation probe: a
// strike at an engine barrier must behave exactly like a caller-side
// cancellation — a context error, a Canceled count, a reusable engine.
func TestFaultInjectBarrierCancel(t *testing.T) {
	ctx := context.Background()
	pool, err := grappolo.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	g := cliqueRing(t, 6, 5)
	armPlan(t, &faults.Plan{CancelEvery: func() (ce [faults.NumPoints]int) {
		ce[faults.EngineBarrier] = 1
		return
	}()})

	if _, err := pool.Detect(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from the injected barrier strike", err)
	}
	if s := pool.Stats(); s.Canceled != 1 || s.Faulted != 0 {
		t.Errorf("Stats: Canceled=%d Faulted=%d, want 1 and 0 (cancellation is not a fault)", s.Canceled, s.Faulted)
	}
	if free := pool.AvailablePermits(); free != 1 {
		t.Errorf("canceled run leaked its permit: %d free, want 1", free)
	}

	faults.Arm(nil)
	want, err := grappolo.Detect(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	out, err := pool.Detect(ctx, g) // the canceled engine must still be sound
	if err != nil {
		t.Fatalf("detect after disarm: %v", err)
	}
	if d := resultMismatch(out, want); d != "" {
		t.Errorf("post-cancel result: %s", d)
	}
}

// TestFaultInjectMidQueueCancellation is the queued-cancellation leak
// regression under injected latency: with every pool serve slowed, a
// waiter canceled from the MIDDLE of the admission queue must return its
// context error promptly, pass its turn without consuming a permit, and
// leave the queue draining normally for the requests around it.
func TestFaultInjectMidQueueCancellation(t *testing.T) {
	ctx := context.Background()
	pool, err := grappolo.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, pool, retainNothing)
	// Four distinct graphs: unique fingerprints, so nothing coalesces and
	// all four requests contend for the single slowed engine.
	graphs := []*grappolo.Graph{
		cliqueRing(t, 3, 4), cliqueRing(t, 4, 4), cliqueRing(t, 5, 4), cliqueRing(t, 6, 4),
	}
	baseline := runtime.NumGoroutine()
	armPlan(t, &faults.Plan{
		SlowEvery: func() (se [faults.NumPoints]int) {
			se[faults.PoolServe] = 1
			return
		}(),
		SlowNanos: int64(40 * time.Millisecond),
	})

	errs := make([]error, len(graphs))
	var wg sync.WaitGroup
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	launch := func(i int, reqCtx context.Context) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.Detect(reqCtx, graphs[i])
		}()
	}
	launch(0, ctx) // takes the permit, sleeps in serve
	waitFor(t, "first request to hold the engine", func() bool { return pool.AvailablePermits() == 0 })
	launch(1, ctx)
	waitFor(t, "second request to queue", func() bool { return pool.QueuedWaiters() == 1 })
	launch(2, cctx) // the mid-queue victim
	waitFor(t, "third request to queue", func() bool { return pool.QueuedWaiters() == 2 })
	launch(3, ctx)
	waitFor(t, "fourth request to queue", func() bool { return pool.QueuedWaiters() == 3 })

	start := time.Now()
	cancel()
	waitFor(t, "mid-queue waiter to withdraw", func() bool { return pool.QueuedWaiters() == 2 })
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("mid-queue withdrawal took %v", elapsed)
	}
	wg.Wait()

	for i, err := range errs {
		if i == 2 {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("victim err = %v, want context.Canceled", err)
			}
			continue
		}
		if err != nil {
			t.Errorf("request %d failed: %v", i, err)
		}
	}
	// The victim withdrew before reaching the serve probe: exactly the
	// three survivors struck the injected slowdown.
	if hits := faults.Hits(faults.PoolServe); hits != 3 {
		t.Errorf("PoolServe hits = %d, want 3 (victim must not reach serve)", hits)
	}
	if free := pool.AvailablePermits(); free != 1 {
		t.Errorf("leaked permit: %d free, want 1", free)
	}
	if q := pool.QueuedWaiters(); q != 0 {
		t.Errorf("queue did not drain: %d waiters", q)
	}
	waitSettled(t, baseline)
}
