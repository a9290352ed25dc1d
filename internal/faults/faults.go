// Package faults provides seeded, deterministic fault injection for the
// serving stack's chaos tests: compiled-in probes at a fixed set of sites
// (engine run start, engine cancellation barriers, pool request serving,
// cache run leading) that can panic, sleep, or force a cooperative
// cancellation according to an armed Plan.
//
// The probes are REAL code only under the `faultinject` build tag; the
// default build compiles them to empty inlinable functions, so production
// binaries and the allocation-regression gates pay literally nothing for
// carrying the injection sites. Chaos and soak tests build with
//
//	go test -tags faultinject -race ...
//
// and arm a Plan; everything the plan decides is a pure function of the
// seed and the per-site hit ordinal, so a given plan produces the same SET
// of faults on every run (which goroutine absorbs which fault still
// depends on scheduling — that interleaving is exactly what the chaos
// tests exist to explore).
package faults

import "fmt"

// Point identifies one injection site threaded into the serving stack.
type Point uint8

const (
	// EngineRun fires at the start of every core.Engine pipeline run —
	// the panic-in-run and slow-run site.
	EngineRun Point = iota
	// EngineBarrier fires at every cooperative-cancellation barrier check
	// inside a run (level loop, iteration and color-set boundaries) — the
	// cancel-at-chunk-N site: a strike latches the engine's par.Cancel
	// flag exactly as a caller-side context cancellation would.
	EngineBarrier
	// PoolServe fires inside Pool.DetectInto after an engine has been
	// checked out, before the run — a panic here exercises the pool's
	// quarantine and permit-release paths without involving the engine.
	PoolServe
	// CacheLead fires inside a Cache leader before it drives the backend —
	// a panic here exercises the seal-on-panic fan-out to its followers.
	CacheLead

	// NumPoints bounds the Point space for plan arrays.
	NumPoints
)

// String names the point for panic messages and test logs.
func (p Point) String() string {
	switch p {
	case EngineRun:
		return "EngineRun"
	case EngineBarrier:
		return "EngineBarrier"
	case PoolServe:
		return "PoolServe"
	case CacheLead:
		return "CacheLead"
	default:
		return fmt.Sprintf("Point(%d)", uint8(p))
	}
}

// Injected is the value an injected panic carries (and the error-shaped
// record of any strike): tests distinguish injected faults from genuine
// bugs by asserting the recovered value is an Injected.
type Injected struct {
	Point Point
	// Hit is the 1-based ordinal of the strike at its site.
	Hit uint64
}

// Error makes an Injected usable directly as (and recognizable inside)
// an error chain.
func (i Injected) Error() string {
	return fmt.Sprintf("faults: injected fault at %s (hit %d)", i.Point, i.Hit)
}

// mix is SplitMix64: the seeded decision hash behind every strike. Cheap,
// stateless, and well distributed, so Every-N plans strike a fixed
// pseudo-random 1/N of hits rather than a lockstep pattern that could
// resonate with the request loop.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Plan configures the armed faults. All fields are Every-N selectors: a
// zero disables that fault at that site; k > 0 strikes a seeded
// pseudo-random 1/k of the site's hits (k == 1 strikes every hit —
// the deterministic single-fault setting unit tests pin behavior with).
type Plan struct {
	// Seed drives every strike decision; the same seed and plan yield the
	// same strike set.
	Seed uint64
	// PanicEvery[p] injects panic(Injected{...}) at point p.
	PanicEvery [NumPoints]int
	// SlowEvery[p] injects a SlowFor sleep at point p (Maybe sites only).
	SlowEvery [NumPoints]int
	// SlowNanos is the injected sleep duration in nanoseconds (default
	// 1ms when a SlowEvery is set and this is zero).
	SlowNanos int64
	// CancelEvery[p] makes ShouldCancel report true at point p.
	CancelEvery [NumPoints]int
}

// strike decides deterministically whether hit n at point p fires a fault
// configured as every-k, under the given seed and a per-fault-kind salt.
func strike(seed, salt uint64, p Point, n uint64, k int) bool {
	if k <= 0 {
		return false
	}
	if k == 1 {
		return true
	}
	return mix(seed^salt^uint64(p)<<32^n)%uint64(k) == 0
}
