package par

import (
	"sync/atomic"
	"testing"
)

type stagesTestCtx struct {
	counts []int
	// visits[s][i] counts how often stage s's item i was handed to a body.
	visits [][]atomic.Int32
	// done[s] counts items of stage s completed; bodies of stage s+1 assert
	// it reached counts[s] before they run (the inter-stage barrier).
	done     []atomic.Int64
	failures atomic.Int64
	maxW     atomic.Int32
}

func stagesTestCount(c *stagesTestCtx, s int) int { return c.counts[s] }

func stagesTestBody(c *stagesTestCtx, s, w, lo, hi int) {
	if s > 0 && c.done[s-1].Load() != int64(c.counts[s-1]) {
		c.failures.Add(1) // previous stage not fully complete: barrier broken
	}
	if int32(w) > c.maxW.Load() {
		c.maxW.Store(int32(w))
	}
	for i := lo; i < hi; i++ {
		c.visits[s][i].Add(1)
	}
	c.done[s].Add(int64(hi - lo))
}

func TestForStagesCtxCoverageAndBarrier(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		counts := []int{977, 3, 0, 1, 4096, 17, 0, 2048}
		c := &stagesTestCtx{counts: counts}
		c.visits = make([][]atomic.Int32, len(counts))
		for s, n := range counts {
			c.visits[s] = make([]atomic.Int32, n)
		}
		c.done = make([]atomic.Int64, len(counts))

		ForStagesCtx(c, len(counts), stagesTestCount, workers, stagesTestBody)

		if f := c.failures.Load(); f != 0 {
			t.Fatalf("workers=%d: %d bodies ran before their previous stage completed", workers, f)
		}
		for s, n := range counts {
			for i := 0; i < n; i++ {
				if got := c.visits[s][i].Load(); got != 1 {
					t.Fatalf("workers=%d: stage %d item %d visited %d times, want 1", workers, s, i, got)
				}
			}
		}
		if w := int(c.maxW.Load()); w >= Workers(workers, 4096) {
			t.Fatalf("workers=%d: saw worker index %d, want < %d", workers, w, Workers(workers, 4096))
		}
	}
}

func TestForStagesCtxNoStages(t *testing.T) {
	// Must be a no-op, not a hang.
	ForStagesCtx(&stagesTestCtx{}, 0, stagesTestCount, 4, stagesTestBody)
}

// TestForStagesCtxSingleWorkerZeroAlloc pins the captureless-body contract
// shared by every ...Ctx form: one effective worker runs the stages inline
// without allocating.
func TestForStagesCtxSingleWorkerZeroAlloc(t *testing.T) {
	counts := []int{64, 3, 9}
	c := &stagesTestCtx{counts: counts}
	c.visits = make([][]atomic.Int32, len(counts))
	for s, n := range counts {
		c.visits[s] = make([]atomic.Int32, n)
	}
	c.done = make([]atomic.Int64, len(counts))
	allocs := testing.AllocsPerRun(20, func() {
		ForStagesCtx(c, len(c.counts), stagesTestCount, 1, stagesTestBody)
	})
	if allocs != 0 {
		t.Fatalf("single-worker ForStagesCtx allocates %v per call, want 0", allocs)
	}
}
