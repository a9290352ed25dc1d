package grappolo

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"grappolo/internal/core"
	"grappolo/internal/par"
)

// Detecter is the serving interface every detection layer implements —
// Detector, Pool, Sharded, Cache and Guard — so the layers compose freely
// and a caller can hold whichever tier of the stack it was handed.
type Detecter interface {
	// Detect runs detection on g and returns a fresh Result.
	Detect(ctx context.Context, g *Graph) (*Result, error)
	// DetectInto is Detect recycling a caller-provided Result; a nil res
	// allocates a fresh one.
	DetectInto(ctx context.Context, g *Graph, res *Result) (*Result, error)
}

// tier is the seam NewCache and NewGuard compose over: a serving tier that
// names the engine pool it serves from (its capacity, options and
// engine-side counters). Pool, Sharded and Cache implement it, so a new
// tier implements enginePool and needs no edits to its neighbours.
type tier interface {
	Detecter
	// enginePool returns the pool the tier serves from, or nil for a
	// nil receiver.
	enginePool() *Pool
}

// poolOf returns the engine pool backend serves from. A backend that is
// not a tier, or is a nil one, is an error.
func poolOf(backend Detecter) (*Pool, error) {
	t, ok := backend.(tier)
	if !ok {
		return nil, fmt.Errorf("backend %T does not serve from an engine pool", backend)
	}
	pool := t.enginePool()
	if pool == nil {
		return nil, fmt.Errorf("nil %T backend", backend)
	}
	return pool, nil
}

// Guard wraps a Pool, Sharded or Cache with production overload semantics
// — the resilience tier of the serving stack (Detector → Pool → Cache →
// Guard). Four behaviors, each off until configured:
//
//   - Bounded admission (MaxQueueDepth): a request that would queue
//     behind more than the configured depth is SHED with an error
//     matching ErrOverloaded — fast, typed back-pressure instead of
//     an unbounded pile-up on the pool's admission queue. Admission is
//     still FIFO-fair: shedding never reorders the requests it admits.
//
//   - Deadline budgets (DetectDeadline): a request whose context carries
//     no deadline gets the configured default, enforced through the
//     engine's chunk-granular cooperative cancellation; a caller-supplied
//     deadline is always respected as-is.
//
//   - Graceful degradation (DegradeAtDepth): once queue pressure reaches
//     the configured depth, requests are served by a SECOND size-classed
//     engine set running a cheaper profile (coarser thresholds, fewer
//     phases/iterations — the paper's own quality/speed knobs), and the
//     Result is marked Degraded. Under a burst the queue drains at the
//     fast profile's pace instead of collapsing; when pressure subsides,
//     full-quality serving resumes by itself.
//
//   - Panic quarantine: a request whose engine run panics returns an
//     *EngineFaultError (matching ErrEngineFault) instead of unwinding the
//     caller; the pool independently quarantines the faulted engine
//     (PoolStats.Faulted), so one poisoned request can neither crash the
//     server nor corrupt a recycled engine.
//
// A Guard owns its backend's admission: route ALL traffic for the wrapped
// backend through the Guard, or the queue-state signals (shedding and
// degradation thresholds) will under-count. A Guard is safe for concurrent
// use by multiple goroutines.
type Guard struct {
	primary  Detecter
	pool     *Pool // the primary backend's engine pool (capacity, options)
	degraded *Pool // non-nil iff degradation is configured
	admit    *par.FairSem

	maxQueue  int           // >= 0 bounds the admission queue; -1 unbounded
	deadline  time.Duration // > 0 default detection deadline
	degradeAt int           // > 0: queue depth at which requests degrade

	// Preallocated shed error: shedding is the hot path of an overloaded
	// server, and it should not allocate its way deeper into the overload.
	errDepth error

	shed      atomic.Int64
	degradedN atomic.Int64
	recovered atomic.Int64
}

// GuardStats extends the backend's PoolStats with the Guard's own
// counters. The embedded PoolStats aggregates the primary AND the
// degraded engine sets (Led counts engine runs wherever they ran).
type GuardStats struct {
	PoolStats
	// Shed counts requests refused with ErrOverloaded.
	Shed int64
	// Degraded counts requests served by the degraded fast profile.
	Degraded int64
	// Recovered counts engine-run panics recovered at the Guard boundary
	// into ErrEngineFault (the pool-side PoolStats.Faulted counts the
	// engines quarantined by those same events).
	Recovered int64
}

// guardConfig accumulates GuardOption applications.
type guardConfig struct {
	maxInFlight int
	maxQueue    int
	deadline    time.Duration
	degradeAt   int
}

// GuardOption configures a Guard.
type GuardOption func(*guardConfig) error

// MaxQueueDepth bounds the Guard's admission queue: a request that would
// become the (n+1)-th queued waiter is shed immediately with
// ErrOverloaded. n == 0 admits only requests that can start without
// queueing at all. Negative n is an error; the default is unbounded.
func MaxQueueDepth(n int) GuardOption {
	return func(c *guardConfig) error {
		if n < 0 {
			return fmt.Errorf("grappolo: negative MaxQueueDepth %d", n)
		}
		c.maxQueue = n
		return nil
	}
}

// DetectDeadline sets the default per-request detection deadline applied
// when the caller's context has none. It covers the engine run, not the
// time spent queued for admission; enforcement is the engine's
// chunk-granular cooperative cancellation, so overruns surface as
// context.DeadlineExceeded within one chunk of sweep work. d must be
// positive. Note the Guard must derive a timer context for requests that
// arrive without a deadline — callers that pre-set their own deadline keep
// the warm request path allocation-free.
func DetectDeadline(d time.Duration) GuardOption {
	return func(c *guardConfig) error {
		if d <= 0 {
			return fmt.Errorf("grappolo: DetectDeadline must be positive, got %v", d)
		}
		c.deadline = d
		return nil
	}
}

// DegradeAtDepth enables graceful degradation: a request that joins the
// admission queue at depth n or beyond is served by the degraded engine
// set and its Result is marked Degraded. The degraded engines run the
// backend pool's configuration with the paper's quality/speed knobs
// tightened: at most 2 phases, at most 8 iterations per phase, and gain
// thresholds of 5e-2 (colored) and 1e-3 (final). n must be at least 1 —
// depth 0 would degrade unqueued requests, which is just a cheaper
// configuration, not degradation.
func DegradeAtDepth(n int) GuardOption {
	return func(c *guardConfig) error {
		if n < 1 {
			return fmt.Errorf("grappolo: DegradeAtDepth must be at least 1, got %d", n)
		}
		c.degradeAt = n
		return nil
	}
}

// MaxInFlight overrides the Guard's concurrent-admission bound (default:
// the backend pool's Size). For a plain Pool backend the default is right —
// one admission per engine. For a CACHE backend a larger bound (a few
// multiples of the pool size) lets requests that take no engine — cache
// hits and followers coalescing onto an identical in-flight miss — pass
// through the Guard; the pool's own FIFO admission still bounds actual
// engine concurrency. n must be positive.
func MaxInFlight(n int) GuardOption {
	return func(c *guardConfig) error {
		if n < 1 {
			return fmt.Errorf("grappolo: MaxInFlight must be positive, got %d", n)
		}
		c.maxInFlight = n
		return nil
	}
}

// NewGuard wraps backend — a *Pool, *Sharded or *Cache, or any other tier
// that serves from an engine pool — in a Guard. With no options the Guard
// only adds panic quarantine; shedding, deadlines and degradation are
// enabled by their respective options. Configuration errors (a backend
// without an engine pool, out-of-range bounds) are returned, never
// coerced.
func NewGuard(backend Detecter, gopts ...GuardOption) (*Guard, error) {
	pool, err := poolOf(backend)
	if err != nil {
		return nil, fmt.Errorf("grappolo: NewGuard: %w", err)
	}
	c := guardConfig{maxQueue: -1}
	for _, o := range gopts {
		if o == nil {
			return nil, fmt.Errorf("grappolo: nil GuardOption")
		}
		if err := o(&c); err != nil {
			return nil, err
		}
	}
	inFlight := c.maxInFlight
	if inFlight == 0 {
		inFlight = pool.Size()
	}
	gd := &Guard{
		primary:   backend,
		pool:      pool,
		admit:     par.NewFairSem(inFlight),
		maxQueue:  c.maxQueue,
		deadline:  c.deadline,
		degradeAt: c.degradeAt,
	}
	if c.maxQueue >= 0 {
		gd.errDepth = &overloadError{reason: fmt.Sprintf("admission queue at its depth bound (%d)", c.maxQueue)}
	}
	if c.degradeAt > 0 {
		gd.degraded = newPoolCore(pool.Size(), degradedOptions(pool.opts))
	}
	return gd, nil
}

// degradedOptions derives the degraded engine configuration from the
// primary pool's validated options (see DegradeAtDepth). Each value it sets
// is one Validate accepts under any objective, coloring or VF setting, so
// the result stays valid.
func degradedOptions(o core.Options) core.Options {
	o.MaxPhases = 2
	o.MaxIterations = 8
	o.ColoredThreshold = 5e-2
	o.FinalThreshold = 1e-3
	return o
}

// Detect runs detection on g through the Guard's admission, deadline and
// degradation policy, returning a fresh Result independent of the serving
// stack. Errors: ErrNilGraph, an ErrInvalidInput match for a graph whose
// total edge weight is not finite, an ErrOverloaded match when shed, an
// ErrEngineFault match when the run panicked, or the (possibly
// Guard-imposed) context's error.
func (gd *Guard) Detect(ctx context.Context, g *Graph) (*Result, error) {
	return gd.DetectInto(ctx, g, nil)
}

// DetectInto is Detect recycling a caller-provided Result. A warm
// non-degraded request whose context already carries a deadline performs
// zero allocations end to end (admission fast path, engine checkout, run,
// write-back); the Guard allocates only to shed, to derive a default
// deadline, or on the degraded path.
func (gd *Guard) DetectInto(ctx context.Context, g *Graph, res *Result) (*Result, error) {
	if err := checkGraph(g); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	degrade := false
	if !gd.admit.TryAcquire() {
		// No free slot: this request must queue — the pressure signals
		// (shed bounds, degradation threshold) all read from here.
		depth := gd.admit.QueueLen() + 1 // the depth this request would join at
		if gd.maxQueue >= 0 && depth > gd.maxQueue {
			gd.shed.Add(1)
			return nil, gd.errDepth
		}
		degrade = gd.degradeAt > 0 && depth >= gd.degradeAt
		if err := gd.admit.AcquireLimited(ctx, gd.maxQueue); err != nil {
			if errors.Is(err, par.ErrQueueFull) {
				// Lost the depth race to concurrent arrivals — the bound
				// is enforced atomically at the queue, the check above is
				// only the fast path.
				gd.shed.Add(1)
				return nil, gd.errDepth
			}
			// The caller's own context failed (cancellation or its own
			// deadline) — that is not shedding, report it as-is.
			return nil, err
		}
	}
	defer gd.admit.Release()

	runCtx := ctx
	if gd.deadline > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			runCtx, cancel = context.WithTimeout(ctx, gd.deadline)
			defer cancel()
		}
	}
	var backend Detecter = gd.primary
	if degrade {
		backend = gd.degraded
	}
	out, err := gd.run(backend, runCtx, g, res)
	if err != nil {
		return nil, err
	}
	out.Degraded = degrade
	if degrade {
		gd.degradedN.Add(1)
	}
	return out, nil
}

// run drives one backend call under the panic-quarantine boundary: a
// panicking engine run (or cache lead) is recovered into an
// *EngineFaultError instead of unwinding the caller. The pool below has
// already quarantined the engine and released its permit by the time the
// panic reaches this frame, so recovery here leaks nothing.
func (gd *Guard) run(backend Detecter, ctx context.Context, g *Graph, res *Result) (out *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			gd.recovered.Add(1)
			out = nil
			err = &EngineFaultError{Panic: v}
		}
	}()
	return backend.DetectInto(ctx, g, res)
}

// Stats returns the Guard's cumulative counters: the engine pools' serving
// stats (primary and degraded engine sets summed) plus shed, degraded and
// recovered counts.
func (gd *Guard) Stats() GuardStats {
	s := GuardStats{
		PoolStats: gd.pool.Stats(),
		Shed:      gd.shed.Load(),
		Degraded:  gd.degradedN.Load(),
		Recovered: gd.recovered.Load(),
	}
	if gd.degraded != nil {
		d := gd.degraded.Stats()
		s.Led += d.Led
		s.Waited += d.Waited
		s.Canceled += d.Canceled
		s.Faulted += d.Faulted
	}
	return s
}

// Queued returns the number of requests currently waiting for admission —
// the live pressure signal the shed and degrade bounds act on.
func (gd *Guard) Queued() int { return gd.admit.QueueLen() }

// String describes the guard for logs.
func (gd *Guard) String() string {
	return fmt.Sprintf("grappolo.Guard(inflight=%d, queued=%d, maxqueue=%d, deadline=%v, degradeAt=%d)",
		gd.admit.Cap(), gd.admit.QueueLen(), gd.maxQueue, gd.deadline, gd.degradeAt)
}
