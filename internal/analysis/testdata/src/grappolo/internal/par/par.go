// Package par is a fixture stub of grappolo/internal/par: the ...Ctx
// helper signatures match the real package (that is all the capturebody
// and internalimport analyzers look at), the bodies are trivial
// single-shot loops.
package par

func ForChunk(n, p, grain int, body func(lo, hi int)) { body(0, n) }

func ForChunkCtx[C any](ctx C, n, p, grain int, body func(ctx C, lo, hi int)) {
	body(ctx, 0, n)
}

func ForChunkWorkerCtx[C any](ctx C, n, p, grain int, body func(ctx C, worker, lo, hi int)) {
	body(ctx, 0, 0, n)
}

func ForChunkPrefixCtx[C any](ctx C, prefix []int64, p int, body func(ctx C, worker, lo, hi int)) {
	body(ctx, 0, 0, len(prefix)-1)
}

func ForStaticCtx[C any](ctx C, n, p int, body func(ctx C, worker, lo, hi int)) {
	body(ctx, 0, 0, n)
}

func ForStagesCtx[C any](ctx C, stages int, count func(ctx C, stage int) int, p int, body func(ctx C, stage, worker, lo, hi int)) {
	for s := 0; s < stages; s++ {
		body(ctx, s, 0, 0, count(ctx, s))
	}
}

func SumFloat64Ctx[C any](ctx C, n, p int, f func(ctx C, i int) float64) float64 {
	s := 0.0
	for i := 0; i < n; i++ {
		s += f(ctx, i)
	}
	return s
}

func MaxInt64Ctx[C any](ctx C, n, p int, f func(ctx C, i int) int64) int64 {
	var m int64
	for i := 0; i < n; i++ {
		if v := f(ctx, i); v > m {
			m = v
		}
	}
	return m
}

func MaxFloat64Ctx[C any](ctx C, n, p int, f func(ctx C, i int) float64) float64 {
	var m float64
	for i := 0; i < n; i++ {
		if v := f(ctx, i); v > m {
			m = v
		}
	}
	return m
}
