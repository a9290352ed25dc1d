// Package par provides the parallel-execution substrate used throughout the
// repository: bounded worker pools over index ranges (the Go analog of
// "#pragma omp parallel for"), parallel reductions, parallel prefix sums,
// and lock-free atomic accumulators.
//
// All functions take an explicit worker count so that callers (and the
// benchmark harness reproducing the paper's thread sweeps) control the
// degree of parallelism precisely rather than relying on GOMAXPROCS.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the worker count used when a caller passes a
// non-positive value: the number of usable CPUs.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// normWorkers clamps p to [1, n] with the default substituted for p <= 0.
// n is the amount of work available; there is no point spawning more
// goroutines than work items.
func normWorkers(p, n int) int {
	if p <= 0 {
		p = DefaultWorkers()
	}
	if n < 1 {
		return 1
	}
	if p > n {
		p = n
	}
	return p
}

// ForChunk runs body(lo, hi) over disjoint chunks covering [0, n) using p
// workers. grain is the chunk size; grain <= 0 selects a size that yields
// roughly 8 chunks per worker, a reasonable balance between scheduling
// overhead and load balance for skewed work.
func ForChunk(n, p, grain int, body func(lo, hi int)) {
	ForChunkWorker(n, p, grain, func(_, lo, hi int) { body(lo, hi) })
}

// Workers returns the effective worker count a loop over n items will use
// for a requested parallelism p: p clamped to [1, n] with the default
// substituted for p <= 0. Callers sizing per-worker state (scratch pools
// indexed by the worker argument of ForChunkWorker / ForChunkPrefix /
// ForStatic) should allocate exactly this many slots.
func Workers(p, n int) int { return normWorkers(p, n) }

// ForChunkWorker is ForChunk with the claiming worker's index (in
// [0, Workers(p, n))) passed to the body, so callers can reuse per-worker
// scratch state (e.g. a SparseAccum per worker) across chunks instead of
// allocating per chunk. Chunks are still dynamically scheduled; the worker
// index only identifies the goroutine, not a static range.
func ForChunkWorker(n, p, grain int, body func(worker, lo, hi int)) {
	ForChunkWorkerCtx(body, n, p, grain, func(b func(worker, lo, hi int), w, lo, hi int) {
		b(w, lo, hi)
	})
}

// ForChunkWorkerCtx is ForChunkWorker with an explicit context value threaded
// into the body instead of captured by it. A CAPTURELESS body literal is a
// static function value, so — unlike the closure-based variants, whose body
// parameter escapes into the worker goroutines and therefore heap-allocates
// the capturing closure at every call site — a single-worker call allocates
// nothing. The pooled-engine hot loops use these ...Ctx forms so a warmed
// Engine.Run is allocation-free end to end.
func ForChunkWorkerCtx[C any](ctx C, n, p, grain int, body func(ctx C, worker, lo, hi int)) {
	p = normWorkers(p, n)
	if n == 0 {
		return
	}
	if p == 1 {
		body(ctx, 0, 0, n)
		return
	}
	if grain <= 0 {
		grain = n / (p * 8)
		if grain < 1 {
			grain = 1
		}
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		// grain is passed as an argument, not captured: a reassigned variable
		// is captured by reference, and a by-reference capture in the
		// goroutine closure would heap-box it in the prologue even when the
		// single-worker path returns early.
		go func(w, grain int) {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				body(ctx, w, lo, hi)
			}
		}(w, grain)
	}
	wg.Wait()
}

// ForChunkCtx is ForChunk with an explicit context value (see
// ForChunkWorkerCtx for why: captureless bodies make single-worker calls
// allocation-free). It duplicates the loop rather than adapting through
// ForChunkWorkerCtx: a generic adapter closure needs the instantiation
// dictionary and would itself allocate per call.
func ForChunkCtx[C any](ctx C, n, p, grain int, body func(ctx C, lo, hi int)) {
	p = normWorkers(p, n)
	if n == 0 {
		return
	}
	if p == 1 {
		body(ctx, 0, n)
		return
	}
	if grain <= 0 {
		grain = n / (p * 8)
		if grain < 1 {
			grain = 1
		}
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(grain int) {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				body(ctx, lo, hi)
			}
		}(grain)
	}
	wg.Wait()
}

// ForChunkPrefix runs body(worker, lo, hi) over disjoint chunks covering
// [0, n) whose boundaries are balanced by cumulative item WEIGHT rather than
// item count. prefix must be an exclusive prefix sum of length n+1
// (prefix[i] = total weight of items [0, i); a graph's CSR offset array is
// exactly this for per-vertex arc counts). Roughly 8 weight-balanced chunks
// per worker are dynamically scheduled, so a handful of heavy items (hub
// vertices on skewed inputs) cannot serialize a sweep the way count-based
// chunking lets them.
func ForChunkPrefix(prefix []int64, p int, body func(worker, lo, hi int)) {
	ForChunkPrefixCtx(body, prefix, p, func(b func(worker, lo, hi int), w, lo, hi int) {
		b(w, lo, hi)
	})
}

// ForChunkPrefixCtx is ForChunkPrefix with an explicit context value (see
// ForChunkWorkerCtx for why: captureless bodies make single-worker calls
// allocation-free).
func ForChunkPrefixCtx[C any](ctx C, prefix []int64, p int, body func(ctx C, worker, lo, hi int)) {
	n := len(prefix) - 1
	if n <= 0 {
		return
	}
	p = normWorkers(p, n)
	total := prefix[n] - prefix[0]
	if p == 1 || total <= 0 {
		body(ctx, 0, 0, n)
		return
	}
	chunks := p * 8
	if chunks > n {
		chunks = n
	}
	bound := func(c int) int {
		if c <= 0 {
			return 0
		}
		if c >= chunks {
			return n
		}
		// Smallest i with prefix[i]-prefix[0] >= c·total/chunks: zero-weight
		// runs collapse into one boundary, possibly leaving empty chunks.
		target := prefix[0] + int64(c)*total/int64(chunks)
		lo, hi := 0, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if prefix[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				c := int(cursor.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo, hi := bound(c), bound(c+1)
				if lo < hi {
					body(ctx, w, lo, hi)
				}
			}
		}(w)
	}
	wg.Wait()
}

// ForStatic runs body(worker, lo, hi) over p contiguous slabs of [0, n),
// one slab per worker (OpenMP "schedule(static)"). Use when per-item cost is
// uniform or when per-worker state (e.g. thread-local accumulators indexed
// by worker id) is needed.
func ForStatic(n, p int, body func(worker, lo, hi int)) {
	ForStaticCtx(body, n, p, func(b func(worker, lo, hi int), w, lo, hi int) {
		b(w, lo, hi)
	})
}

// ForStaticCtx is ForStatic with an explicit context value (see
// ForChunkWorkerCtx for why: captureless bodies make single-worker calls
// allocation-free).
func ForStaticCtx[C any](ctx C, n, p int, body func(ctx C, worker, lo, hi int)) {
	p = normWorkers(p, n)
	if n == 0 {
		return
	}
	if p == 1 {
		body(ctx, 0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		lo := w * n / p
		hi := (w + 1) * n / p
		go func(w, lo, hi int) {
			defer wg.Done()
			if lo < hi {
				body(ctx, w, lo, hi)
			}
		}(w, lo, hi)
	}
	wg.Wait()
}

// SumFloat64Ctx computes the sum of f(ctx, i) over [0, n) in parallel with
// a deterministic reduction order (per-worker partials combined in worker
// order), so results are reproducible for a fixed p. ctx is threaded into
// f instead of captured by it (see ForChunkWorkerCtx for why: captureless
// bodies make single-worker calls allocation-free).
func SumFloat64Ctx[C any](ctx C, n, p int, f func(ctx C, i int) float64) float64 {
	p = normWorkers(p, n)
	if p == 1 {
		s := 0.0
		for i := 0; i < n; i++ {
			s += f(ctx, i)
		}
		return s
	}
	// The closure-based ForStatic is deliberate here: the parallel path
	// allocates for its goroutines anyway, and the ...Ctx contract
	// (capturebody-enforced) reserves the Ctx helpers for captureless
	// bodies. The allocation-free case is the p == 1 early return above.
	partials := make([]float64, p)
	ForStatic(n, p, func(w, lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += f(ctx, i)
		}
		partials[w] = s
	})
	total := 0.0
	for _, s := range partials {
		total += s
	}
	return total
}

// MaxInt64Ctx computes the maximum of f(ctx, i) over [0, n) in parallel. It
// returns 0 for n == 0. ctx is threaded into f as in SumFloat64Ctx.
func MaxInt64Ctx[C any](ctx C, n, p int, f func(ctx C, i int) int64) int64 {
	return maxCtx(ctx, n, p, f)
}

// MaxFloat64Ctx is MaxInt64Ctx for float64 values, compared with >. Like
// every reduction here it calls f exactly once per index, so f may also
// update state it owns at that index.
func MaxFloat64Ctx[C any](ctx C, n, p int, f func(ctx C, i int) float64) float64 {
	return maxCtx(ctx, n, p, f)
}

// maxCtx is the body of MaxInt64Ctx and MaxFloat64Ctx.
func maxCtx[C any, T int64 | float64](ctx C, n, p int, f func(ctx C, i int) T) T {
	if n == 0 {
		return 0
	}
	p = normWorkers(p, n)
	if p == 1 {
		m := f(ctx, 0)
		for i := 1; i < n; i++ {
			if v := f(ctx, i); v > m {
				m = v
			}
		}
		return m
	}
	partials := make([]T, p)
	ForStatic(n, p, func(w, lo, hi int) {
		m := f(ctx, lo)
		for i := lo + 1; i < hi; i++ {
			if v := f(ctx, i); v > m {
				m = v
			}
		}
		partials[w] = m
	})
	m := partials[0]
	for _, v := range partials[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ExclusivePrefixSum replaces v with its exclusive prefix sum and returns
// the total. With p > 1 it uses the classic two-pass blocked scan (per-block
// sums, scan of block sums, block-local scan); the paper lists exactly this
// parallelization as the fix for its serial community-renumbering step.
func ExclusivePrefixSum(v []int64, p int) int64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	p = normWorkers(p, n)
	if p == 1 || n < 4096 {
		var run int64
		for i := range v {
			v[i], run = run, run+v[i]
		}
		return run
	}
	blockSums := make([]int64, p)
	ForStatic(n, p, func(w, lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += v[i]
		}
		blockSums[w] = s
	})
	var run int64
	for w := range blockSums {
		blockSums[w], run = run, run+blockSums[w]
	}
	ForStatic(n, p, func(w, lo, hi int) {
		acc := blockSums[w]
		for i := lo; i < hi; i++ {
			v[i], acc = acc, acc+v[i]
		}
	})
	return run
}

// AddFloat64 atomically adds delta to the float64 at *cell, the Go analog
// of the paper's __sync_fetch_and_add on doubles. The cell must be aligned
// (Go guarantees 8-byte alignment for float64 slice elements), so dense
// []float64 arrays of accumulators serve as they are.
func AddFloat64(cell *float64, delta float64) {
	addr := (*atomic.Uint64)(ptr(cell))
	for {
		old := addr.Load()
		next := fromBits(old) + delta
		if addr.CompareAndSwap(old, toBits(next)) {
			return
		}
	}
}

// LoadFloat64 atomically reads the float64 at *cell. Pair with AddFloat64
// when readers run concurrently with writers (the paper's colored sweeps
// read community degrees while other vertices update them).
func LoadFloat64(cell *float64) float64 {
	return fromBits((*atomic.Uint64)(ptr(cell)).Load())
}
