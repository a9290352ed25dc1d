package grappolo_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"grappolo"
	"grappolo/internal/graph"
)

// badGraph builds a structurally corrupt graph: FromCSR with check=false
// accepts an adjacency entry far out of the vertex range, which a later
// engine sweep indexes into a vertex-sized array — a natural, untagged way
// to make an engine run panic. Tests using it MUST configure Workers(1):
// with one worker the parallel sweeps run inline on the calling goroutine,
// so the panic unwinds through the serving stack where recover works,
// instead of crashing the process from a worker goroutine.
func badGraph(t *testing.T) *grappolo.Graph {
	t.Helper()
	offsets := []int64{0, 2, 4, 6, 8}
	adj := []int32{1, 9999, 0, 2, 1, 3, 2, 0}
	weights := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	g, err := graph.FromCSR(offsets, adj, weights, 1, false)
	if err != nil {
		t.Fatalf("building corrupt graph: %v", err)
	}
	return g
}

// detectRecovering runs d.Detect and converts a propagated panic into an
// error-shaped outcome for assertions.
func detectRecovering(d grappolo.Detecter, ctx context.Context, g *grappolo.Graph) (res *grappolo.Result, err error, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	res, err = d.Detect(ctx, g)
	return res, err, false
}

// TestNilGraphTyped pins the typed nil-graph contract across every serving
// layer: a nil *Graph is refused up front with ErrNilGraph, before any
// permit, in-flight run or admission slot is consumed.
func TestNilGraphTyped(t *testing.T) {
	ctx := context.Background()
	d, err := grappolo.New()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := grappolo.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	gd, err := grappolo.NewGuard(pool)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := grappolo.NewSharded(pool)
	if err != nil {
		t.Fatal(err)
	}
	layers := []struct {
		tag string
		d   grappolo.Detecter
	}{
		{"Detector", d},
		{"Pool", pool},
		{"Sharded", sh},
		{"Cache", newCache(t, pool)},
		{"Guard", gd},
	}
	for _, l := range layers {
		if _, err := l.d.Detect(ctx, nil); !errors.Is(err, grappolo.ErrNilGraph) {
			t.Errorf("%s.Detect(nil): err = %v, want ErrNilGraph", l.tag, err)
		}
		if _, err := l.d.DetectInto(ctx, nil, nil); !errors.Is(err, grappolo.ErrNilGraph) {
			t.Errorf("%s.DetectInto(nil): err = %v, want ErrNilGraph", l.tag, err)
		}
	}
	if _, err := grappolo.Detect(ctx, nil); !errors.Is(err, grappolo.ErrNilGraph) {
		t.Errorf("package Detect(nil): err = %v, want ErrNilGraph", err)
	}
	if s := pool.Stats(); s.Led != 0 || s.Canceled != 0 {
		t.Errorf("nil-graph refusals consumed pool state: %+v", s)
	}
	if free := pool.AvailablePermits(); free != 1 {
		t.Errorf("nil-graph refusals leaked a permit: %d free, want 1", free)
	}
}

// TestNonFiniteGraphTyped pins the finite-weight contract across every
// detection entry point: a graph whose total edge weight is NaN or infinite
// is refused up front with an *InputError naming "graph", before any permit
// is consumed. A Builder keeps NaN and +Inf weights, and a run on such a
// graph never ends, so each call runs under a 10 s timer.
func TestNonFiniteGraphTyped(t *testing.T) {
	ctx := context.Background()
	graphs := map[string]*grappolo.Graph{}
	for name, w := range map[string][2]float64{
		"nan":      {math.NaN(), 1},
		"inf":      {math.Inf(1), 1},
		"overflow": {math.MaxFloat64, math.MaxFloat64},
	} {
		b := grappolo.NewBuilder(3)
		b.AddEdge(0, 1, w[0])
		b.AddEdge(1, 2, w[1])
		graphs[name] = b.Build(1)
	}
	d, err := grappolo.New(grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	gd, err := grappolo.NewGuard(pool)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := grappolo.NewSharded(pool)
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]func(*grappolo.Graph) error{
		"package Detect": func(g *grappolo.Graph) error {
			_, err := grappolo.Detect(ctx, g, grappolo.Workers(1))
			return err
		},
		"DetectSerial": func(g *grappolo.Graph) error {
			_, err := grappolo.DetectSerial(g, 0)
			return err
		},
	}
	for tag, l := range map[string]grappolo.Detecter{
		"Detector": d, "Pool": pool, "Sharded": sh, "Cache": newCache(t, pool), "Guard": gd,
	} {
		entries[tag+".Detect"] = func(g *grappolo.Graph) error {
			_, err := l.Detect(ctx, g)
			return err
		}
		entries[tag+".DetectInto"] = func(g *grappolo.Graph) error {
			_, err := l.DetectInto(ctx, g, nil)
			return err
		}
	}
	for gname, g := range graphs {
		for ename, detect := range entries {
			done := make(chan error, 1)
			go func() { done <- detect(g) }()
			select {
			case err := <-done:
				var ie *grappolo.InputError
				if !errors.Is(err, grappolo.ErrInvalidInput) || !errors.As(err, &ie) || ie.Arg != "graph" {
					t.Errorf("%s on the %s graph: err = %v, want an *InputError naming graph", ename, gname, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s on the %s graph: no return within 10 s", ename, gname)
			}
		}
	}
	if s := pool.Stats(); s.Led != 0 || s.Canceled != 0 {
		t.Errorf("non-finite-graph refusals consumed pool state: %+v", s)
	}
	if free := pool.AvailablePermits(); free != 1 {
		t.Errorf("non-finite-graph refusals leaked a permit: %d free, want 1", free)
	}
}

// TestPoolQuarantinesPanickedEngine pins the quarantine contract: a run
// that panics propagates to the caller (the unpooled behavior), but the
// engine that panicked is dropped — never recycled — its permit is
// released, and the pool keeps serving with a fresh engine.
func TestPoolQuarantinesPanickedEngine(t *testing.T) {
	ctx := context.Background()
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	good := cliqueRing(t, 4, 5)
	if _, err := pool.Detect(ctx, good); err != nil {
		t.Fatalf("warm-up detect: %v", err)
	}
	if idle := pool.IdleEngines(); idle != 1 {
		t.Fatalf("after warm-up: %d idle engines, want 1", idle)
	}

	_, _, panicked := detectRecovering(pool, ctx, badGraph(t))
	if !panicked {
		t.Fatal("corrupt graph did not panic the engine run")
	}
	if s := pool.Stats(); s.Faulted != 1 {
		t.Errorf("Stats().Faulted = %d, want 1", s.Faulted)
	}
	if free := pool.AvailablePermits(); free != 1 {
		t.Errorf("panicked run leaked its permit: %d free, want 1", free)
	}
	if idle := pool.IdleEngines(); idle != 0 {
		t.Errorf("panicked engine was recycled: %d idle, want 0", idle)
	}

	// The pool must keep serving: the freed slot lazily creates a fresh
	// engine, and the result is bit-identical to an unpoisoned pool's.
	want, err := grappolo.Detect(ctx, good, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.Detect(ctx, good)
	if err != nil {
		t.Fatalf("detect after quarantine: %v", err)
	}
	mustMatch(t, "post-quarantine", res, want)
	if idle := pool.IdleEngines(); idle != 1 {
		t.Errorf("after recovery: %d idle engines, want 1", idle)
	}
}

// TestCacheLeaderPanicReleasesFollowers pins the leader-panic seal path:
// when a Cache leader's engine run panics, its followers are released with
// an error matching ErrEngineFault (not left waiting forever), the panic
// still propagates through the leader's own goroutine, and the pool
// underneath neither leaks the permit nor recycles the poisoned engine.
func TestCacheLeaderPanicReleasesFollowers(t *testing.T) {
	ctx := context.Background()
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, pool)
	bad := badGraph(t)

	// Park the engine permit so the leader blocks in pool admission,
	// giving the follower a deterministic window to join the run.
	if err := pool.HoldEnginePermit(ctx); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var leaderPanicked bool
	var followerErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _, leaderPanicked = detectRecovering(c, ctx, bad)
	}()
	waitFor(t, "leader to claim the run", func() bool { return pool.QueuedWaiters() == 1 })
	go func() {
		defer wg.Done()
		_, followerErr, _ = detectRecovering(c, ctx, bad)
	}()
	waitFor(t, "follower to join", func() bool { return c.JoinedFollowers() == 1 })
	pool.ReleaseEnginePermit()
	wg.Wait()

	if !leaderPanicked {
		t.Error("leader did not observe the engine panic")
	}
	if !errors.Is(followerErr, grappolo.ErrEngineFault) {
		t.Errorf("follower err = %v, want an ErrEngineFault match", followerErr)
	}
	if free := pool.AvailablePermits(); free != 1 {
		t.Errorf("leader panic leaked a permit: %d free, want 1", free)
	}
	if idle := pool.IdleEngines(); idle != 0 {
		t.Errorf("panicked engine was recycled: %d idle, want 0", idle)
	}

	// The cache must remain serviceable after the seal.
	good := cliqueRing(t, 4, 5)
	want, err := grappolo.Detect(ctx, good, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Detect(ctx, good)
	if err != nil {
		t.Fatalf("detect after leader panic: %v", err)
	}
	mustMatch(t, "post-seal", res, want)
}

// TestGuardRecoversEnginePanic pins the Guard's quarantine boundary: the
// panic that the bare pool propagates is recovered into a typed
// *EngineFaultError, the Guard's admission slot is released, and serving
// continues.
func TestGuardRecoversEnginePanic(t *testing.T) {
	ctx := context.Background()
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	gd, err := grappolo.NewGuard(pool)
	if err != nil {
		t.Fatal(err)
	}
	res, err, panicked := detectRecovering(gd, ctx, badGraph(t))
	if panicked {
		t.Fatal("Guard let the engine panic unwind into the caller")
	}
	if res != nil {
		t.Errorf("faulted request returned a result: %v", res)
	}
	if !errors.Is(err, grappolo.ErrEngineFault) {
		t.Errorf("err = %v, want an ErrEngineFault match", err)
	}
	var fe *grappolo.EngineFaultError
	if !errors.As(err, &fe) || fe.Panic == nil {
		t.Errorf("err = %#v, want *EngineFaultError carrying the panic value", err)
	}
	s := gd.Stats()
	if s.Recovered != 1 || s.Faulted != 1 {
		t.Errorf("Stats: Recovered=%d Faulted=%d, want 1 and 1", s.Recovered, s.Faulted)
	}
	if slots := gd.AdmissionSlots(); gd.Queued() != 0 || pool.AvailablePermits() != slots {
		t.Errorf("fault leaked admission state: queued=%d permits=%d/%d",
			gd.Queued(), pool.AvailablePermits(), slots)
	}

	good := cliqueRing(t, 4, 5)
	want, err := grappolo.Detect(ctx, good, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	out, err := gd.Detect(ctx, good)
	if err != nil {
		t.Fatalf("detect after fault: %v", err)
	}
	mustMatch(t, "post-fault", out, want)
	if out.Degraded {
		t.Error("unpressured request marked Degraded")
	}
}

// TestGuardShedsAtDepthBound pins bounded admission: a request that would
// exceed MaxQueueDepth is refused immediately with an ErrOverloaded match,
// while requests within the bound queue normally and are still served.
func TestGuardShedsAtDepthBound(t *testing.T) {
	ctx := context.Background()
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	gd, err := grappolo.NewGuard(pool, grappolo.MaxQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	g := cliqueRing(t, 4, 5)
	want, err := grappolo.Detect(ctx, g, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the single admission slot so every request below must queue.
	if err := gd.HoldAdmission(ctx); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var queuedRes *grappolo.Result
	var queuedErr error
	go func() {
		defer wg.Done()
		queuedRes, queuedErr = gd.Detect(ctx, g) // joins at depth 1: admitted
	}()
	waitFor(t, "first request to queue", func() bool { return gd.Queued() == 1 })

	// The deadline turns an ignored depth bound into a failure: without
	// it the request would queue behind the held slot forever.
	sctx, stop := context.WithTimeout(ctx, 5*time.Second)
	defer stop()
	start := time.Now()
	if _, err := gd.Detect(sctx, g); errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("over-bound request queued until its deadline: MaxQueueDepth(1) was not enforced")
	} else if !errors.Is(err, grappolo.ErrOverloaded) {
		t.Errorf("over-bound request: err = %v, want an ErrOverloaded match", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("shed took %v; depth shedding must not wait", elapsed)
	}
	if gd.Queued() != 1 {
		t.Errorf("shed disturbed the queue: %d queued, want 1", gd.Queued())
	}

	gd.ReleaseAdmission()
	wg.Wait()
	if queuedErr != nil {
		t.Fatalf("within-bound request failed: %v", queuedErr)
	}
	mustMatch(t, "within-bound", queuedRes, want)
	s := gd.Stats()
	if s.Shed != 1 {
		t.Errorf("Stats().Shed = %d, want 1", s.Shed)
	}
}

// TestGuardQueuedCancelIsNotShed pins that a failure of the caller's OWN
// context while its request is queued for admission is reported as that
// context's error, never disguised as overload, and is not counted in
// Shed, also under a depth bound the request is within.
func TestGuardQueuedCancelIsNotShed(t *testing.T) {
	ctx := context.Background()
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	gd, err := grappolo.NewGuard(pool, grappolo.MaxQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	g := cliqueRing(t, 4, 5)
	if err := gd.HoldAdmission(ctx); err != nil {
		t.Fatal(err)
	}
	defer gd.ReleaseAdmission()

	cctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := gd.Detect(cctx, g)
		done <- err
	}()
	waitFor(t, "canceled request to queue", func() bool { return gd.Queued() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) || errors.Is(err, grappolo.ErrOverloaded) {
		t.Errorf("canceled-while-queued: err = %v, want context.Canceled (not overload)", err)
	}
	if s := gd.Stats(); s.Shed != 0 {
		t.Errorf("caller cancellation was counted as a shed: Shed = %d", s.Shed)
	}
}

// TestGuardDefaultDeadline pins the deadline budget: a context without a
// deadline gets the Guard's default (here an immediately-expiring one, so
// the engine's cooperative cancellation surfaces DeadlineExceeded), while
// a caller-supplied deadline is used as-is and never tightened.
func TestGuardDefaultDeadline(t *testing.T) {
	ctx := context.Background()
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	gd, err := grappolo.NewGuard(pool, grappolo.DetectDeadline(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	g := cliqueRing(t, 6, 6)

	if _, err := gd.Detect(ctx, g); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("no caller deadline: err = %v, want DeadlineExceeded from the default budget", err)
	}

	// A generous caller deadline overrides the Guard's (tighter) default.
	dctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	res, err := gd.Detect(dctx, g)
	if err != nil {
		t.Fatalf("caller deadline was tightened by the default budget: %v", err)
	}
	want, err := grappolo.Detect(ctx, g, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, "caller-deadline", res, want)
}

// TestGuardDegradesUnderPressure pins graceful degradation: a request that
// queues at the configured depth is served by the degraded engine set —
// its result is exactly what the documented degraded profile produces,
// marked Degraded — and full-quality serving resumes once the
// queue drains.
func TestGuardDegradesUnderPressure(t *testing.T) {
	ctx := context.Background()
	pool, err := grappolo.NewPool(1, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	gd, err := grappolo.NewGuard(pool, grappolo.DegradeAtDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	g := cliqueRing(t, 8, 6)
	wantFull, err := grappolo.Detect(ctx, g, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	// The documented degraded profile, layered on the pool's own options
	// exactly as NewGuard derives it.
	wantFast, err := grappolo.Detect(ctx, g, grappolo.Workers(1),
		grappolo.MaxPhases(2), grappolo.MaxIterations(8), grappolo.Thresholds(5e-2, 1e-3))
	if err != nil {
		t.Fatal(err)
	}

	// Unpressured: full quality, no Degraded mark.
	res, err := gd.Detect(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, "unpressured", res, wantFull)
	if res.Degraded {
		t.Error("unpressured result marked Degraded")
	}

	// Pressured: occupy the admission slot so the next request queues at
	// depth 1, the degradation threshold.
	if err := gd.HoldAdmission(ctx); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var degRes *grappolo.Result
	var degErr error
	go func() {
		defer wg.Done()
		degRes, degErr = gd.Detect(ctx, g)
	}()
	waitFor(t, "pressured request to queue", func() bool { return gd.Queued() == 1 })
	gd.ReleaseAdmission()
	wg.Wait()
	if degErr != nil {
		t.Fatalf("pressured request failed: %v", degErr)
	}
	mustMatch(t, "degraded", degRes, wantFast)
	if !degRes.Degraded {
		t.Error("pressured result not marked Degraded")
	}

	// Pressure gone: full quality again.
	res, err = gd.Detect(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, "recovered", res, wantFull)
	if res.Degraded {
		t.Error("post-pressure result still marked Degraded")
	}

	s := gd.Stats()
	if s.Degraded != 1 {
		t.Errorf("Stats().Degraded = %d, want 1", s.Degraded)
	}
	if s.Led != 3 {
		t.Errorf("Stats().Led = %d, want 3 (2 primary + 1 degraded)", s.Led)
	}
	if s.Shed != 0 {
		t.Errorf("Stats().Shed = %d, want 0 (degradation is not shedding)", s.Shed)
	}
}

// TestGuardOverCacheCoalesces pins the MaxInFlight interplay: with an
// admission bound wider than the pool, duplicate misses pass through the
// Guard concurrently and coalesce in the Cache — followers consume no
// engine — and every caller still gets the bit-identical result.
func TestGuardOverCacheCoalesces(t *testing.T) {
	ctx := context.Background()
	pool, err := grappolo.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, pool)
	gd, err := grappolo.NewGuard(c, grappolo.MaxInFlight(4))
	if err != nil {
		t.Fatal(err)
	}
	g := cliqueRing(t, 8, 6)
	want, err := grappolo.Detect(ctx, g)
	if err != nil {
		t.Fatal(err)
	}

	// Park the engine so all four duplicates are in flight before any runs.
	if err := pool.HoldEnginePermit(ctx); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]*grappolo.Result, 4)
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = gd.Detect(ctx, g)
		}()
	}
	waitFor(t, "duplicates to coalesce", func() bool { return c.JoinedFollowers() == 3 })
	pool.ReleaseEnginePermit()
	wg.Wait()

	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		mustMatch(t, "coalesced", results[i], want)
	}
	if led, coalesced := gd.Stats().Led, c.Stats().Coalesced; led != 1 || coalesced != 3 {
		t.Errorf("Stats: Led=%d Coalesced=%d, want 1 leader and 3 coalesced", led, coalesced)
	}
}

// TestGuardOptionValidation pins the constructor contract: invalid bounds
// and incoherent combinations are errors, never silently coerced.
func TestGuardOptionValidation(t *testing.T) {
	pool, err := grappolo.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		tag  string
		opts []grappolo.GuardOption
	}{
		{"negative MaxQueueDepth", []grappolo.GuardOption{grappolo.MaxQueueDepth(-1)}},
		{"zero DetectDeadline", []grappolo.GuardOption{grappolo.DetectDeadline(0)}},
		{"zero DegradeAtDepth", []grappolo.GuardOption{grappolo.DegradeAtDepth(0)}},
		{"zero MaxInFlight", []grappolo.GuardOption{grappolo.MaxInFlight(0)}},
		{"nil GuardOption", []grappolo.GuardOption{nil}},
	}
	for _, c := range cases {
		if _, err := grappolo.NewGuard(pool, c.opts...); err == nil {
			t.Errorf("%s: NewGuard succeeded, want error", c.tag)
		}
	}
	d, err := grappolo.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grappolo.NewGuard(d); err == nil {
		t.Error("NewGuard over a bare Detector succeeded, want error (no pool to guard)")
	}
	for _, nilBackend := range []grappolo.Detecter{nil, (*grappolo.Pool)(nil), (*grappolo.Sharded)(nil)} {
		if _, err := grappolo.NewGuard(nilBackend); err == nil {
			t.Errorf("NewGuard over nil backend %T succeeded, want error", nilBackend)
		}
	}
}
