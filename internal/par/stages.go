package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForStagesCtx runs a SEQUENCE of dynamically-chunked parallel loops — one
// per stage, stage s covering [0, count(ctx, s)) — on a single worker team
// with a barrier between consecutive stages. It runs every colored sweep at
// two or more workers, two stages per color set: each stage must fully
// complete before the next starts (a set's moves must be visible to the
// next), but paying a full fork/join — goroutine spawns, closure setup,
// WaitGroup — per stage costs more than the work of a small set. One team
// amortizes that setup across the whole sweep; only the barrier (an atomic
// arrival count plus a release epoch) separates the stages.
//
// The barrier is sense-reversing in epoch form: workers finishing stage s
// publish their arrival; the LAST arriver resets the shared chunk cursor
// for the next stage and then advances the release epoch, which the others
// spin-wait on (yielding to the scheduler between polls, so oversubscribed
// hosts make progress). The cursor reset is ordered before the release, so
// no worker can claim stage s+1 work against a stale cursor.
//
// Like every ...Ctx form, ctx and the two function values must be
// CAPTURELESS for the single-worker path to stay allocation-free; with one
// effective worker the stages simply run serially in order, which is also
// the bitwise-reference behavior the colored sweep's determinism tests pin.
// Effective workers are normalized against the LARGEST stage; the worker
// index passed to body is stable across all stages of one call, so
// per-worker scratch (sized by Workers) is reusable throughout.
func ForStagesCtx[C any](ctx C, stages int, count func(ctx C, stage int) int, p int, body func(ctx C, stage, worker, lo, hi int)) {
	if stages <= 0 {
		return
	}
	maxN := 0
	for s := 0; s < stages; s++ {
		if n := count(ctx, s); n > maxN {
			maxN = n
		}
	}
	nw := normWorkers(p, maxN)
	if nw == 1 {
		for s := 0; s < stages; s++ {
			if n := count(ctx, s); n > 0 {
				body(ctx, s, 0, 0, n)
			}
		}
		return
	}
	var cursor atomic.Int64
	var arrived atomic.Int32
	var release atomic.Int32 // index of the highest stage open for claiming
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func(w int) {
			defer wg.Done()
			for s := 0; s < stages; s++ {
				for release.Load() < int32(s) {
					runtime.Gosched()
				}
				n := count(ctx, s)
				grain := n / (nw * 8)
				if grain < 1 {
					grain = 1
				}
				for {
					lo := int(cursor.Add(int64(grain))) - grain
					if lo >= n {
						break
					}
					hi := lo + grain
					if hi > n {
						hi = n
					}
					body(ctx, s, w, lo, hi)
				}
				if int(arrived.Add(1)) == nw {
					// Last arriver: rearm the cursor, then open the next
					// stage. Store order matters — release is the
					// synchronization edge the spinners read.
					arrived.Store(0)
					cursor.Store(0)
					release.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
}
