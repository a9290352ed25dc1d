// Package capturebody exercises the capturebody analyzer: bodies handed to
// the par ...Ctx helpers must be captureless.
package capturebody

import "grappolo/internal/par"

type state struct {
	curr []int32
	prev []int32
}

func (st *state) decide(i int) int32 { return st.prev[i] }

// sweepBody is the contract-conforming form: package-level, captureless,
// all state threaded through the ctx parameter.
func sweepBody(st *state, w, lo, hi int) {
	for i := lo; i < hi; i++ {
		st.curr[i] = st.decide(i)
	}
}

func stageBody(st *state, s, w, lo, hi int) {}

func stageLen(st *state, s int) int { return s }

// good shows the allowed forms: package-level functions and captureless
// literals.
func good(st *state, prefix []int64, n, p int) {
	par.ForChunkPrefixCtx(st, prefix, p, sweepBody)
	par.ForChunkWorkerCtx(st, n, p, 0, sweepBody)
	par.ForStagesCtx(st, 3, stageLen, p, stageBody)
	par.ForChunkCtx(st, n, p, 0, func(st *state, lo, hi int) {
		for i := lo; i < hi; i++ {
			st.curr[i] = 0
		}
	})
	_ = par.SumFloat64Ctx(st, n, p, func(st *state, i int) float64 { return float64(st.prev[i]) })
}

// goodClosureVariant: the closure-based (non-Ctx) helpers accept capturing
// closures by design; nothing is flagged.
func goodClosureVariant(st *state, n, p int) {
	par.ForChunk(n, p, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			st.curr[i] = 1
		}
	})
}

// sweepUncoloredLeaky reproduces the exact PR 3 pathology the Engine
// refactor removed from core's sweepUncolored: the loop body CAPTURES the
// phase state instead of receiving it through the ctx parameter. The body
// escapes into the worker goroutines, so the capturing closure is
// heap-allocated on every sweep call — this was the dominant share of the
// ~170 allocs/run a warmed engine paid before the captureless rewrite.
func sweepUncoloredLeaky(st *state, prefix []int64, workers int) {
	copy(st.prev, st.curr)
	par.ForChunkPrefixCtx(0, prefix, workers, func(_ int, w, lo, hi int) { // want `captures st`
		for i := lo; i < hi; i++ {
			st.curr[i] = st.decide(i)
		}
	})
}

// badMulti captures two variables; both are named in the diagnostic.
func badMulti(st *state, n, p, bias int) {
	par.ForChunkCtx(0, n, p, 0, func(_ int, lo, hi int) { // want `captures bias, st`
		for i := lo; i < hi; i++ {
			st.curr[i] = int32(bias)
		}
	})
}

// badCount: EVERY func-typed argument of a ...Ctx helper is checked, not
// just the final loop body.
func badCount(st *state, p int, sizes []int) {
	par.ForStagesCtx(st, len(sizes), func(st *state, s int) int { return sizes[s] }, p, stageBody) // want `captures sizes`
}

// badReduction: the reduction helpers are covered too.
func badReduction(st *state, n, p int, scale float64) float64 {
	return par.SumFloat64Ctx(st, n, p, func(st *state, i int) float64 { // want `captures scale`
		return scale * float64(st.prev[i])
	})
}

// badMax: so is the float max reduction.
func badMax(st *state, n, p int, seen []float64) float64 {
	return par.MaxFloat64Ctx(st, n, p, func(st *state, i int) float64 { // want `captures seen`
		return seen[i] - float64(st.prev[i])
	})
}

// badMethodValue: a bound method value allocates per evaluation exactly
// like a capturing closure.
func badMethodValue(st *state, n, p int) {
	par.ForChunkWorkerCtx(st, n, p, 0, st.boundBody) // want `method value`
}

func (st *state) boundBody(_ *state, w, lo, hi int) {}
