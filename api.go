package grappolo

import (
	"context"

	"grappolo/internal/core"
)

// A Detector runs parallel Louvain community detection with one validated
// configuration. It owns a reusable engine whose scratch memory (phase
// arrays, per-worker accumulators, coloring and rebuild buffers, pooled
// coarse graphs) is sized by high-water mark and recycled across Detect
// calls, so repeated detections on same-shaped graphs perform zero scratch
// allocations.
//
// A Detector is NOT safe for concurrent use: concurrent Detect calls need
// one Detector each, or a Pool, which manages a bounded set of engines and
// serves concurrent calls with size-class reuse.
type Detector struct {
	eng *core.Engine
}

// New validates opts and returns a Detector. Invalid values and invalid
// combinations — a negative worker count, CPM without a positive gamma, CPM
// combined with vertex following, Async combined with Coloring — return an
// error; nothing is silently coerced. No options at all is valid and yields
// the paper's baseline configuration.
func New(opts ...Option) (*Detector, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return &Detector{eng: core.NewEngine(o)}, nil
}

// Detect runs the full pipeline on g and returns a fresh Result. The
// context is honored cooperatively: cancellation is polled at the level
// loop and phase-sweep boundaries and observed once per chunk inside the
// sweeps — where detection time is spent — without any branch in the
// per-vertex hot loops. An in-flight preprocessing step (vertex following,
// coloring, rebuild) runs to completion first, so the worst-case latency is
// one such step, not one chunk. On cancellation the Detector remains valid
// and keeps its warmed scratch.
//
// The returned Result is independent of the Detector and stays valid across
// later calls. Serving loops that want warm calls to allocate nothing
// should use DetectInto.
func (d *Detector) Detect(ctx context.Context, g *Graph) (*Result, error) {
	if err := checkGraph(g); err != nil {
		return nil, err
	}
	return d.eng.RunCtx(ctx, g)
}

// DetectInto is Detect recycling a previous Result: res's membership,
// phase, trace and hierarchy storage is reused (the returned pointer is res
// itself), so a warmed Detector re-running a same-shaped graph allocates
// nothing at all. The previous contents of res are invalidated; a nil res
// allocates a fresh Result. On cancellation it returns (nil, ctx.Err()) and
// res's contents are undefined, but its storage may be passed to a later
// call.
func (d *Detector) DetectInto(ctx context.Context, g *Graph, res *Result) (*Result, error) {
	if err := checkGraph(g); err != nil {
		return nil, err
	}
	return d.eng.RunIntoCtx(ctx, g, res)
}

// Detect is the one-shot convenience form: it builds a throwaway Detector
// per call, so every invocation starts cold. Callers that cluster
// repeatedly should hold a Detector (or a Pool) and reuse it.
func Detect(ctx context.Context, g *Graph, opts ...Option) (*Result, error) {
	d, err := New(opts...)
	if err != nil {
		return nil, err
	}
	return d.Detect(ctx, g)
}
