package grappolo

import "context"

// Test hooks: the fairness and coalescing tests need to park the pool's
// engines deterministically (so requests pile up in a known admission
// order) and to observe the admission queue. Compiled into the package only
// under test.

// HoldEnginePermit takes one of p's engine permits directly, queuing FIFO
// like a request would, without running anything. Pair with
// ReleaseEnginePermit.
func (p *Pool) HoldEnginePermit(ctx context.Context) error { return p.sem.Acquire(ctx) }

// ReleaseEnginePermit returns a permit taken by HoldEnginePermit.
func (p *Pool) ReleaseEnginePermit() { p.sem.Release() }

// QueuedWaiters returns the number of requests currently queued for an
// engine (canceled entries excluded).
func (p *Pool) QueuedWaiters() int { return p.sem.QueueLen() }

// AvailablePermits returns the number of free engine permits.
func (p *Pool) AvailablePermits() int { return p.sem.Available() }

// JoinedFollowers returns the number of followers that have ATTACHED to an
// in-flight run so far (CacheStats.Coalesced counts only followers actually
// served by another's run, which happens later — tests choreographing a
// pile-up need the attach-time signal).
func (c *Cache) JoinedFollowers() int64 { return c.joins.Load() }

// IdleEngines returns the number of engines currently parked in the idle
// list — the quarantine tests' proof that a panicked engine was dropped
// (its slot stays empty until a later request lazily re-creates one).
func (p *Pool) IdleEngines() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// HoldAdmission parks one of the Guard's admission slots (queuing FIFO
// like a request would), so tests can pile requests up at known queue
// depths. Pair with ReleaseAdmission.
func (gd *Guard) HoldAdmission(ctx context.Context) error { return gd.admit.Acquire(ctx) }

// ReleaseAdmission returns a slot taken by HoldAdmission.
func (gd *Guard) ReleaseAdmission() { gd.admit.Release() }

// AdmissionSlots returns the Guard's concurrent-admission capacity.
func (gd *Guard) AdmissionSlots() int { return gd.admit.Cap() }
