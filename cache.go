package grappolo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"grappolo/internal/core"
	"grappolo/internal/dynamic"
	"grappolo/internal/faults"
	"grappolo/internal/graph"
	"grappolo/internal/rescache"
)

// Cache serves repeated detections of the same graph once: concurrent
// identical misses share ONE backend run (coalescing in flight), and a TTL
// + LRU result store serves later repeats with no run at all (caching
// across time). It is keyed by the graph's content identity alone — a
// Cache serves one backend, whose engine options never change — and
// composes as a Detecter in front of a Pool or Sharded backend (and behind
// a Guard). Duplicate traffic — dashboard refreshes, retries, many tenants
// asking about the same public dataset — is the common overload shape for
// a clustering service; a warm hit into a recycled Result performs zero
// allocations, the same gate discipline as the rest of the serving stack.
//
// Coalescing: a miss either joins a concurrent miss for the same content
// as a FOLLOWER or LEADS it. The leader resolves the miss (delta tier or
// backend run), publishes the result to the store, then copies it out to
// every follower before it returns, so each caller receives an independent
// Result with exactly the ownership semantics of a private call. Leaders
// inherit the backend's FIFO-fair admission, so runs start in leader
// arrival order under overload; followers consume no engine. A follower
// canceled while waiting returns its own ctx.Err() at once. A leader
// canceled mid-flight aborts only its own call: its followers retry, and
// the first to retry leads a fresh run. A leader that panics releases its
// followers with an error matching ErrEngineFault, and the panic continues
// through the leader.
//
// Correctness: the store and the in-flight table are both keyed by
// graph.Fingerprint — the exact vertex count, arc count and total-weight
// bits plus the full-content StrongHash, computed once per immutable Graph
// and memoized on it. A request is served an entry, or joins a run, only
// when all four agree, so a served membership always has the request's
// length, and graphs of the same shape but different content each lead
// their own run and keep their own entry. A Graph never changes, so an
// entry never goes stale: a Stream works on its own copy of its seed, and
// its live graph is a different graph with a different fingerprint.
//
// Delta tier (DeltaEdits): a miss whose fingerprint shape (vertex count,
// arc count, total weight) is within the configured edit budget of a cached
// entry is diffed against that entry's retained graph with one linear CSR
// merge-walk. If the request is reachable by at most DeltaEdits edge
// insertions (including weight increases), the delta is routed onto an
// incremental dynamic.Maintainer seeded from the cached membership — the
// paper's real-time future-work item as a serving-tier fast path — instead
// of a cold engine run. Such results are marked Result.Incremental: a valid
// clustering of the request's graph whose quality tracks incremental
// Louvain (re-anchored by a full re-detection once a quarter of the
// maintainer's vertices have been touched) rather than matching a cold run
// bit-for-bit. Deletions and rewires never route; they fall through to the
// backend.
//
// Memory: the cache retains each admitted graph and result (and any
// maintainer) and evicts least-recently-used entries once the estimated
// resident bytes exceed CacheBytes. A budget below any entry's size
// retains nothing: the Cache then only coalesces, and a warm miss into a
// recycled Result allocates nothing. A Cache is safe for concurrent use.
type Cache struct {
	backend Detecter
	pool    *Pool
	store   *rescache.Store

	mu       sync.Mutex
	inflight map[graph.Fingerprint]*run
	free     *run // recycled run records

	joins     atomic.Int64 // followers attached (test observability)
	coalesced atomic.Int64 // followers served by another request's run
}

// CacheStats are a Cache's cumulative counters plus a residency snapshot;
// see the fields of the aliased type. Hits + Misses counts every request,
// and Coalesced counts the misses served by another request's run.
type CacheStats = rescache.Stats

// run is one in-flight miss. Its mutex guards the follower list and the
// sealed flag; the Cache mutex guards only the in-flight table and the free
// list, and the two are nested only table-side (c.mu → r.mu) when a
// recycled record is armed.
type run struct {
	mu        sync.Mutex
	key       graph.Fingerprint
	sealed    bool // no more joiners; set when the outcome is fanned out (and while free-listed)
	followers []*follower
	next      *run // Cache free list
}

// follower is one coalesced waiter. Delivery is arbitrated by the state
// word: the sealer claims a follower before copying into its res, a
// canceling waiter withdraws by claiming it first. Exactly one of out/err
// is set before ready is signaled, and ready is signaled for every CLAIMED
// follower — a canceler that loses the claim race waits for that signal
// (one copy, not the whole fan-out) so its res is never written after it
// returns.
type follower struct {
	state atomic.Int32  // followerWaiting → followerClaimed | followerCanceled
	ready chan struct{} // cap 1, signaled once iff claimed
	res   *Result       // caller-provided recycling target (may be nil)
	out   *Result
	err   error
}

const (
	followerWaiting int32 = iota
	followerClaimed
	followerCanceled
)

// errLeaderPanicked is fanned out to followers when their leader panics;
// the panic itself propagates through the leader, the call whose goroutine
// drove the backend. It matches ErrEngineFault, so followers and the Guard
// classify a leader's fault uniformly.
var errLeaderPanicked error = &EngineFaultError{Panic: "coalesced run panicked in its leader"}

// cacheConfig accumulates CacheOption applications.
type cacheConfig struct {
	ttl      time.Duration
	maxBytes int64
	delta    int
}

// CacheOption configures a Cache.
type CacheOption func(*cacheConfig) error

// CacheTTL bounds how long an entry may be served after admission (default:
// until evicted). d must be positive.
func CacheTTL(d time.Duration) CacheOption {
	return func(c *cacheConfig) error {
		if d <= 0 {
			return fmt.Errorf("grappolo: CacheTTL must be positive, got %v", d)
		}
		c.ttl = d
		return nil
	}
}

// CacheBytes bounds the cache's estimated resident bytes (graphs + results
// + maintainers); least-recently-used entries are evicted past it. The
// default is 256 MiB. n must be positive. A budget below any entry's size
// retains nothing, leaving only the in-flight coalescing.
func CacheBytes(n int64) CacheOption {
	return func(c *cacheConfig) error {
		if n <= 0 {
			return fmt.Errorf("grappolo: CacheBytes must be positive, got %d", n)
		}
		c.maxBytes = n
		return nil
	}
}

// DeltaEdits enables the delta tier with an edge-edit budget: a miss within
// k edge insertions of a cached graph is served incrementally instead of
// cold. 0 (the default) disables delta routing. Requires a modularity,
// non-Async backend configuration — the incremental overlay maintains
// standard modularity.
func DeltaEdits(k int) CacheOption {
	return func(c *cacheConfig) error {
		if k < 0 {
			return fmt.Errorf("grappolo: negative DeltaEdits %d", k)
		}
		c.delta = k
		return nil
	}
}

// NewCache wraps backend — a *Pool or *Sharded, or any other tier that
// serves from an engine pool — in a result cache. All
// traffic for the backend should route through the Cache (a detection that
// bypasses it is neither coalesced nor cached). Configuration errors are
// returned, never coerced.
func NewCache(backend Detecter, copts ...CacheOption) (*Cache, error) {
	pool, err := poolOf(backend)
	if err != nil {
		return nil, fmt.Errorf("grappolo: NewCache: %w", err)
	}
	c := cacheConfig{maxBytes: 256 << 20}
	for _, o := range copts {
		if o == nil {
			return nil, fmt.Errorf("grappolo: nil CacheOption")
		}
		if err := o(&c); err != nil {
			return nil, err
		}
	}
	if c.delta > 0 {
		if pool.opts.Objective == core.ObjCPM {
			return nil, fmt.Errorf("grappolo: DeltaEdits maintains modularity; CPM backends cannot delta-route")
		}
		if pool.opts.Async {
			return nil, fmt.Errorf("grappolo: DeltaEdits requires deterministic full runs; Async backends cannot delta-route")
		}
	}
	store := rescache.New(rescache.Options{
		TTL:        c.ttl,
		MaxBytes:   c.maxBytes,
		DeltaEdges: c.delta,
		Dynamic: dynamic.Options{
			Workers: pool.opts.Workers,
			Full:    pool.opts.Defaults(),
		},
	})
	return &Cache{
		backend:  backend,
		pool:     pool,
		store:    store,
		inflight: make(map[graph.Fingerprint]*run),
	}, nil
}

// enginePool implements tier: a Cache serves from its backend's pool.
func (c *Cache) enginePool() *Pool {
	if c == nil {
		return nil
	}
	return c.pool
}

// Stats returns the cache's cumulative counters and residency snapshot.
func (c *Cache) Stats() CacheStats {
	s := c.store.Stats()
	s.Coalesced = c.coalesced.Load()
	return s
}

// Detect runs detection on g, serving from the cache when its exact content
// matches a live entry, joining an identical miss already in flight,
// routing small edits incrementally when DeltaEdits is enabled, and falling
// through to the backend otherwise. The Result is always a fresh copy
// independent of the cache.
func (c *Cache) Detect(ctx context.Context, g *Graph) (*Result, error) {
	return c.DetectInto(ctx, g, nil)
}

// DetectInto is Detect recycling a caller-provided Result: a warm hit
// copies the cached result into res and performs zero allocations, as does
// a warm miss that leads a Pool run whose result the byte budget cannot
// retain; a follower costs O(1) allocations. A nil res allocates a fresh
// Result. Cancellation follows the backend's contract; an exact hit never
// blocks and never fails. On cancellation it returns (nil, ctx.Err()) and
// res's contents are undefined, but its storage may be passed to a later
// call.
func (c *Cache) DetectInto(ctx context.Context, g *Graph, res *Result) (*Result, error) {
	if err := checkGraph(g); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The fingerprint's hash is memoized on the Graph, so a warm loop —
	// even one alternating between several resident graphs — pays one
	// atomic load here, no hashing and no allocation.
	fp := g.Fingerprint()
	if cached, ok := c.store.Get(fp); ok {
		return core.CopyResultInto(res, cached), nil
	}
	for {
		c.mu.Lock()
		r := c.inflight[fp]
		if r == nil {
			r = c.takeRun(fp)
			c.inflight[fp] = r
			c.mu.Unlock()
			return c.lead(ctx, g, r, res)
		}
		c.mu.Unlock()
		out, err, retry := c.follow(ctx, r, fp, res)
		if !retry {
			return out, err
		}
		// The run this request joined ended without a result for it (it was
		// sealed before the join, or its leader was canceled). Check our own
		// context, then re-resolve — leading a fresh run if no identical
		// miss is in flight anymore.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// takeRun pops a recycled run record (or allocates one) and arms it for
// key. Caller holds c.mu; the nested r.mu acquisition (c.mu → r.mu) is
// safe because no code path holds r.mu while taking c.mu.
func (c *Cache) takeRun(key graph.Fingerprint) *run {
	r := c.free
	if r == nil {
		r = &run{}
	} else {
		c.free = r.next
		r.next = nil
	}
	// Arm under r.mu: a stale joiner from a previous generation still
	// holding this pointer must observe either sealed==true (and retry) or
	// the new key — never a torn mix.
	r.mu.Lock()
	r.key = key
	r.sealed = false
	r.mu.Unlock()
	return r
}

// lead resolves the miss, publishes the result to the store, and fans it
// out to r's followers. Followers copy from the leader's own result before
// lead returns, so no shared result outlives the run.
func (c *Cache) lead(ctx context.Context, g *Graph, r *run, res *Result) (*Result, error) {
	completed := false
	defer func() {
		if !completed {
			// The leader panicked. Seal the run so followers get an error
			// instead of waiting forever, then let the panic continue through
			// the leader — the uncoalesced behavior for the caller whose
			// goroutine drove the backend. The record is not recycled.
			c.seal(r, nil, errLeaderPanicked)
		}
	}()
	faults.Maybe(faults.CacheLead)
	out, err := c.resolve(ctx, g, res)
	completed = true
	// A leader whose own context failed the run fans that error out, and
	// its followers retry under their own contexts.
	c.seal(r, out, err)
	c.recycle(r)
	return out, err
}

// resolve serves a miss: onto a cached maintainer when the delta tier
// routes it, else by a backend run whose result is admitted to the store.
func (c *Cache) resolve(ctx context.Context, g *Graph, res *Result) (*Result, error) {
	if out, handled, err := c.store.DeltaDetect(ctx, g); handled {
		if err != nil {
			return nil, err
		}
		return core.CopyResultInto(res, out), nil
	}
	out, err := c.backend.DetectInto(ctx, g, res)
	if err != nil {
		return nil, err
	}
	// The store needs a private copy; skip building one it would refuse.
	if c.store.Admits(g, out) {
		c.store.Put(g, core.CopyResultInto(nil, out), nil)
	}
	return out, nil
}

// seal removes r from the in-flight table (no more joiners) and delivers
// the outcome to every follower that has not withdrawn. The O(membership)
// copies run OUTSIDE both mutexes — sealing only holds r.mu long enough to
// flip the flag, so joins of other runs and cancellations are never
// blocked behind fan-out copy work. Per-follower claim arbitration (see
// follower) keeps the copies race-free against cancellation.
func (c *Cache) seal(r *run, out *Result, err error) {
	c.mu.Lock()
	if c.inflight[r.key] == r {
		delete(c.inflight, r.key)
	}
	c.mu.Unlock()
	r.mu.Lock()
	r.sealed = true
	followers := r.followers // frozen: no joins after sealed
	r.mu.Unlock()
	for _, f := range followers {
		if !f.state.CompareAndSwap(followerWaiting, followerClaimed) {
			continue // withdrew first; its res must not be touched
		}
		if err != nil {
			f.err = err
		} else {
			f.out = core.CopyResultInto(f.res, out)
		}
		f.ready <- struct{}{}
	}
}

// recycle returns a sealed run record to the free list. sealed stays true
// while free-listed, so stale joiners retry rather than attach to a
// dormant record.
func (c *Cache) recycle(r *run) {
	r.mu.Lock()
	for i := range r.followers {
		r.followers[i] = nil
	}
	r.followers = r.followers[:0]
	r.mu.Unlock()
	c.mu.Lock()
	r.next = c.free
	c.free = r
	c.mu.Unlock()
}

// follow joins the in-flight run r and waits for its outcome or ctx. retry
// means r ended without a result for this request and the caller should
// re-resolve.
func (c *Cache) follow(ctx context.Context, r *run, key graph.Fingerprint, res *Result) (out *Result, err error, retry bool) {
	f := &follower{ready: make(chan struct{}, 1), res: res}
	r.mu.Lock()
	if r.sealed || r.key != key {
		// Sealed (or already recycled for another graph) between the table
		// lookup and the join.
		r.mu.Unlock()
		return nil, nil, true
	}
	r.followers = append(r.followers, f)
	r.mu.Unlock()
	c.joins.Add(1)
	select {
	case <-f.ready:
		if f.err == nil {
			// Coalesced counts requests actually SERVED by another's run; a
			// follower whose leader dies retries and is counted by whatever
			// path finally serves it.
			c.coalesced.Add(1)
			return f.out, nil, false
		}
		if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
			// The LEADER was canceled, not this follower.
			return nil, nil, true
		}
		return nil, f.err, false
	case <-ctx.Done():
		if !f.state.CompareAndSwap(followerWaiting, followerCanceled) {
			// The sealer claimed us concurrently and is (or will be)
			// writing res; wait out that single delivery so res is
			// quiescent by the time the caller sees the cancellation.
			<-f.ready
		}
		return nil, ctx.Err(), false
	}
}

// String describes the cache for logs.
func (c *Cache) String() string {
	s := c.Stats()
	return fmt.Sprintf("grappolo.Cache(entries=%d, bytes=%d, hits=%d, misses=%d, coalesced=%d, delta=%d)",
		s.Entries, s.Bytes, s.Hits, s.Misses, s.Coalesced, s.DeltaRouted)
}
