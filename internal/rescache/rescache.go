// Package rescache is the cross-time serving cache behind grappolo.Cache: a
// TTL + LRU store of detection Results keyed by (graph fingerprint, engine
// options), sized and evicted by estimated graph+result bytes, with a delta
// tier that routes near-miss graphs (a small edge-insertion edit of a cached
// graph) onto an incremental dynamic.Maintainer seeded from the cached
// membership instead of a cold engine run.
//
// Correctness before coverage: the sampled graph.Fingerprint is only the
// lookup key's first-pass filter. Every hit is confirmed against the exact
// full-content StrongHash before a result is served, and a live entry is
// never replaced by a colliding graph — a sampled-hash collision therefore
// degrades to "uncached" (counted in Stats.Rejected), never to serving the
// wrong membership.
//
// Concurrency: the store mutex guards the table, the LRU list, byte
// accounting and counters. Cached Results and graphs are immutable after
// insert, so hit-path copy-out happens OUTSIDE the lock; a cached entry's
// maintainer is exclusive — DeltaDetect detaches it under the lock, works
// on it privately, and re-homes it onto the new entry it creates (or
// reattaches it on a failed route).
package rescache

import (
	"context"
	"math"
	"sync"
	"time"

	"grappolo/internal/core"
	"grappolo/internal/dynamic"
	"grappolo/internal/graph"
)

// Key identifies a cached detection: the graph's sampled fingerprint plus
// the exact engine configuration that produced the result. core.Options is
// all scalars, so the composite is comparable and indexes the table
// directly — "options identity" with no serialization step.
type Key struct {
	FP   graph.Fingerprint
	Opts core.Options
}

// Options configure a Store.
type Options struct {
	// TTL bounds entry age; 0 keeps entries until evicted.
	TTL time.Duration
	// MaxBytes bounds the estimated resident bytes (graphs + results +
	// maintainers); 0 is unbounded. An entry larger than the whole budget
	// is not admitted at all.
	MaxBytes int64
	// DeltaEdges is the edge-edit budget for delta routing; 0 disables the
	// delta tier.
	DeltaEdges int
	// Dynamic is the maintenance policy for per-entry maintainers
	// (Workers, RefreshFraction, and the Full options quality re-anchoring
	// runs use).
	Dynamic dynamic.Options
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
}

// Stats are cumulative counters plus a point-in-time size snapshot.
type Stats struct {
	// Hits counts exact serves: sampled key matched AND the strong hash
	// confirmed. Misses counts everything else (including rejections), so
	// Hits + Misses is the number of lookups.
	Hits, Misses int64
	// Coalesced counts misses served by joining a concurrent identical
	// miss's run instead of resolving their own. The Store never coalesces;
	// the serving tier that does (grappolo.Cache) fills it in.
	Coalesced int64
	// DeltaRouted counts misses served by the delta tier instead of a cold
	// run.
	DeltaRouted int64
	// Evictions counts entries dropped by the byte budget; Expired counts
	// entries dropped past their TTL.
	Evictions, Expired int64
	// Rejected counts strong-hash refusals: a sampled-fingerprint match
	// whose exact content differed — the collision the strong hash exists
	// to catch — at lookup or admission.
	Rejected int64
	// Entries and Bytes snapshot the current residency.
	Entries int
	Bytes   int64
}

// entry is one cached detection. res and g are immutable after insert;
// maint is exclusively owned (see package comment).
type entry struct {
	key     Key
	strong  uint64
	g       *graph.Graph
	res     *core.Result
	maint   *dynamic.Maintainer
	bytes   int64
	expires time.Time // zero: never

	prev, next *entry // LRU list; head is most recent
}

// Store is the cache. Safe for concurrent use.
type Store struct {
	opts Options

	mu      sync.Mutex
	entries map[Key]*entry
	head    *entry
	tail    *entry
	bytes   int64

	hits, misses, delta, evictions, expired, rejected int64
}

// New returns an empty store.
func New(opts Options) *Store {
	return &Store{opts: opts, entries: make(map[Key]*entry)}
}

func (s *Store) now() time.Time {
	if s.opts.Now != nil {
		return s.opts.Now()
	}
	return time.Now()
}

// Get returns the cached Result for key, confirming the exact content hash
// before serving. The returned Result is the entry's own (immutable)
// storage: callers must deep-copy it out and never mutate it. A hit bumps
// the entry to the front of the LRU order. Zero allocations on the hit
// path.
func (s *Store) Get(key Key, strong uint64) (*core.Result, bool) {
	s.mu.Lock()
	e := s.entries[key]
	if e == nil {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	if !e.expires.IsZero() && s.now().After(e.expires) {
		s.remove(e)
		s.expired++
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	if e.strong != strong {
		// Sampled-fingerprint collision: same key, different graph. The
		// incumbent stays; this request is served uncached.
		s.rejected++
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.unlink(e)
	s.pushFront(e)
	s.hits++
	res := e.res
	s.mu.Unlock()
	return res, true
}

// Put admits a detection under key. The store takes ownership of res (it
// must be a private deep copy, immutable hereafter) and retains g — the
// graph anchors delta diffs and the byte estimate — plus an optional
// maintainer already representing g. Returns false when the entry was not
// admitted: it alone exceeds the byte budget, or a LIVE entry with
// different exact content already owns the key (sampled collision; the
// incumbent wins and the newcomer stays uncached, counted as Rejected).
func (s *Store) Put(key Key, strong uint64, g *graph.Graph, res *core.Result, maint *dynamic.Maintainer) bool {
	bytes := EstimateBytes(g, res, maint != nil)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepExpired()
	if old := s.entries[key]; old != nil {
		if old.strong != strong {
			s.rejected++
			return false
		}
		s.remove(old) // same content re-admitted: refresh TTL/result/maintainer
	}
	if s.opts.MaxBytes > 0 && bytes > s.opts.MaxBytes {
		return false
	}
	e := &entry{key: key, strong: strong, g: g, res: res, maint: maint, bytes: bytes}
	if s.opts.TTL > 0 {
		e.expires = s.now().Add(s.opts.TTL)
	}
	s.entries[key] = e
	s.pushFront(e)
	s.bytes += bytes
	for s.opts.MaxBytes > 0 && s.bytes > s.opts.MaxBytes && s.tail != e {
		s.evictions++
		s.remove(s.tail)
	}
	return true
}

// Admits reports whether an entry for g and res fits the byte budget, so a
// caller can skip building the private copy Put would refuse.
func (s *Store) Admits(g *graph.Graph, res *core.Result) bool {
	return s.opts.MaxBytes <= 0 || EstimateBytes(g, res, false) <= s.opts.MaxBytes
}

// DeltaDetect attempts to serve a cache MISS from the delta tier: if some
// unexpired entry with the same options is a ≤DeltaEdges edge-insertion
// edit away from g (per the cheap CSR merge-diff), the delta is fed to that
// entry's maintainer — seeded from the cached membership if the entry has
// none — and the incremental result is admitted as a new entry for g
// (carrying the maintainer forward, so a chain of small edits keeps
// streaming onto one maintainer).
//
// Returns handled=false when no candidate routes (caller falls through to
// a cold run). When handled, err is nil or ctx's error from a canceled
// incremental flush. The returned Result is entry-owned: deep-copy it out.
func (s *Store) DeltaDetect(ctx context.Context, key Key, g *graph.Graph, strong uint64) (*core.Result, bool, error) {
	if s.opts.DeltaEdges <= 0 {
		return nil, false, nil
	}
	fp := key.FP
	w := math.Float64frombits(fp.WBits)
	s.mu.Lock()
	var cand *entry
	candGap := int64(1) << 62
	for _, e := range s.entries {
		ef := e.key.FP
		if e.key.Opts != key.Opts || ef == fp {
			continue
		}
		if !e.expires.IsZero() && s.now().After(e.expires) {
			continue
		}
		// Insert-only compatibility gates, all O(1): the request must be a
		// superset shape — at least as many vertices and arcs (each edge
		// edit adds at most 2 arcs) and no net weight loss.
		gap := fp.Arcs - ef.Arcs
		if fp.N < ef.N || gap < 0 || gap > 2*int64(s.opts.DeltaEdges) {
			continue
		}
		if w < math.Float64frombits(ef.WBits) {
			continue
		}
		if cand == nil || gap < candGap {
			cand, candGap = e, gap
		}
	}
	if cand == nil {
		s.mu.Unlock()
		return nil, false, nil
	}
	base, baseRes, maint, baseKey := cand.g, cand.res, cand.maint, cand.key
	cand.maint = nil // detach: the maintainer is ours exclusively now
	s.mu.Unlock()

	edges, ok := DiffEdges(base, g, s.opts.DeltaEdges, make([]graph.Edge, 0, s.opts.DeltaEdges))
	if !ok {
		s.reattach(baseKey, maint)
		return nil, false, nil
	}
	if maint == nil {
		var err error
		maint, err = dynamic.NewSeeded(base, baseRes.Membership, s.opts.Dynamic)
		if err != nil {
			return nil, false, nil
		}
	}
	maint.Grow(g.N()) // cover trailing isolated vertices no delta edge names
	for _, e := range edges {
		if err := maint.AddEdgeCtx(ctx, e.U, e.V, e.W); err != nil {
			return nil, true, err
		}
	}
	if err := maint.FlushCtx(ctx); err != nil {
		// The maintainer now holds a half-refreshed state for g, not for
		// base: discard it rather than reattach. The base entry stays
		// servable (its graph and result are untouched) and re-seeds a
		// fresh maintainer on the next delta.
		return nil, true, err
	}
	res := ResultFrom(maint)
	s.mu.Lock()
	s.delta++
	s.mu.Unlock()
	s.Put(key, strong, g, res, maint)
	return res, true, nil
}

// reattach returns a detached maintainer to its entry if the entry is still
// resident and has not grown a new one.
func (s *Store) reattach(key Key, maint *dynamic.Maintainer) {
	if maint == nil {
		return
	}
	s.mu.Lock()
	if e := s.entries[key]; e != nil && e.maint == nil {
		e.maint = maint
	}
	s.mu.Unlock()
}

// Remove drops the entry for key, if resident. Invalidation entry point.
func (s *Store) Remove(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		return false
	}
	s.remove(e)
	return true
}

// Clear drops every entry and returns how many were resident.
func (s *Store) Clear() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.entries)
	for s.tail != nil {
		s.remove(s.tail)
	}
	return n
}

// Len returns the resident entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, DeltaRouted: s.delta,
		Evictions: s.evictions, Expired: s.expired, Rejected: s.rejected,
		Entries: len(s.entries), Bytes: s.bytes,
	}
}

// sweepExpired drops every entry past its TTL. Caller holds s.mu.
func (s *Store) sweepExpired() {
	if s.opts.TTL <= 0 {
		return
	}
	now := s.now()
	for e := s.tail; e != nil; {
		prev := e.prev
		if now.After(e.expires) {
			s.expired++
			s.remove(e)
		}
		e = prev
	}
}

// remove unlinks and deletes e. Caller holds s.mu.
func (s *Store) remove(e *entry) {
	s.unlink(e)
	delete(s.entries, e.key)
	s.bytes -= e.bytes
}

func (s *Store) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if s.head == e {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if s.tail == e {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *Store) pushFront(e *entry) {
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// lruKeys returns the resident keys in most-recent-first order (tests).
func (s *Store) lruKeys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []Key
	for e := s.head; e != nil; e = e.next {
		keys = append(keys, e.key)
	}
	return keys
}

// DiffEdges computes the undirected edge-insertion delta turning base into
// next, appending into buf (reused across calls): one entry per new edge
// {u, v}, u <= v, and one per weight INCREASE on an existing edge (carrying
// the increment — the maintainer's AddEdge accumulates). Returns ok=false
// when next is not reachable from base by at most budget edge insertions:
// an arc of base is missing from next or lost weight (deletions are not
// maintainable incrementally), or the edit count exceeds budget.
//
// Both graphs are canonical CSR (rows sorted, duplicates merged), so each
// row pair merges with one linear two-pointer walk: O(arcs) worst case,
// with early exit the moment the budget is crossed.
func DiffEdges(base, next *graph.Graph, budget int, buf []graph.Edge) ([]graph.Edge, bool) {
	nb, nn := base.N(), next.N()
	if nn < nb {
		return buf, false
	}
	out := buf[:0]
	for i := 0; i < nn; i++ {
		var bAdj []int32
		var bW []float64
		if i < nb {
			bAdj, bW = base.Neighbors(i)
		}
		nAdj, nW := next.Neighbors(i)
		bi := 0
		for ti, j := range nAdj {
			if bi < len(bAdj) && bAdj[bi] < j {
				return buf, false // base arc absent from next: a deletion
			}
			w := nW[ti]
			if bi < len(bAdj) && bAdj[bi] == j {
				bw := bW[bi]
				bi++
				if w == bw {
					continue
				}
				if w < bw {
					return buf, false // weight decrease: not an insertion
				}
				w -= bw // increment on an existing edge
			}
			if int32(i) <= j { // count each undirected edit once
				out = append(out, graph.Edge{U: int32(i), V: j, W: w})
				if len(out) > budget {
					return buf, false
				}
			}
		}
		if bi < len(bAdj) {
			return buf, false // trailing base arcs absent from next
		}
	}
	return out, true
}

// ResultFrom materializes a maintainer's live assignment as a fresh
// core.Result with dense community ids (first-occurrence order, the same
// convention as the engine's renumbering), the overlay modularity, and the
// Incremental flag set. Phases/Timing stay empty: no engine ran.
func ResultFrom(m *dynamic.Maintainer) *core.Result {
	mem := m.Membership()
	res := &core.Result{Membership: make([]int32, len(mem))}
	remap := make([]int32, len(mem))
	for i := range remap {
		remap[i] = -1
	}
	var next int32
	for i, c := range mem {
		if remap[c] < 0 {
			remap[c] = next
			next++
		}
		res.Membership[i] = remap[c]
	}
	res.NumCommunities = int(next)
	res.Modularity = m.Modularity()
	res.Incremental = true
	return res
}

// EstimateBytes estimates the resident footprint of one cache entry: the
// retained CSR graph, the deep-copied result, and (when present) the
// incremental maintainer's adjacency-map overlay, whose per-arc map-entry
// overhead dominates its slices. Estimates steer the eviction budget; they
// are not an allocator audit.
func EstimateBytes(g *graph.Graph, res *core.Result, hasMaint bool) int64 {
	n, arcs := int64(g.N()), g.ArcCount()
	b := (n+1)*8 + arcs*(4+8) + n*8 // offsets + adj/weights + degrees
	b += int64(len(res.Membership)) * 4
	for _, l := range res.Levels {
		b += int64(len(l)) * 4
	}
	b += int64(len(res.Phases)) * 96
	if hasMaint {
		b += arcs*48 + n*64
	}
	return b
}
