package core

import (
	"grappolo/internal/graph"
)

// Run executes the full parallel Louvain pipeline of §5.4 on g:
//
//  1. optional VF preprocessing (parallel),
//  2. optional coloring preprocessing per phase,
//  3. phases of parallel lock-free iterations (Algorithm 1),
//  4. parallel graph rebuild between phases,
//
// and returns the flattened community assignment for g's original vertices
// together with full instrumentation.
//
// Run is the one-shot convenience form: it builds a throwaway Engine per
// call, so every invocation starts cold. Callers that cluster repeatedly —
// dynamic overlays, harness sweeps, services answering many requests —
// should hold a single Engine (NewEngine) and call Engine.Run, which
// recycles all scratch across calls; the results are identical.
func Run(g *graph.Graph, opts Options) *Result {
	return NewEngine(opts).Run(g)
}

// Modularity computes Eq. (3) for an arbitrary assignment on g with the
// given number of workers — exposed so callers can score external
// partitions (e.g. ground truth) with phaseState.score, the same code that
// scores every engine iteration.
func Modularity(g *graph.Graph, membership []int32, gamma float64, workers int) float64 {
	if gamma <= 0 {
		gamma = 1
	}
	n := g.N()
	st := &phaseState{g: g, m: g.M(), m2: g.TotalWeight(), curr: membership, gamma: gamma,
		commDeg: make([]float64, n), size: make([]int64, n)}
	return st.score(workers)
}
