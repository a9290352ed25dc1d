package grappolo

import (
	"context"
	"fmt"

	"grappolo/internal/core"
	"grappolo/internal/dynamic"
)

// ErrBadEdgeWeight is returned by Stream.AddEdge when the edge weight is
// not a positive finite number (NaN, ±Inf, zero or negative), or when
// adding it to the stream's total edge weight, buffered edges included,
// would make that total infinite. A bad weight is rejected before it can
// touch the overlay — silently coercing it, as builders do for offline
// input, would corrupt the live modularity bookkeeping every later batch
// builds on.
var ErrBadEdgeWeight = dynamic.ErrBadWeight

// Stream maintains communities under a live stream of edge insertions — the
// paper's future-work item (i), "community detection in real-time". Edge
// arrivals are buffered into batches; applying a batch re-decides only the
// vertices whose neighborhoods changed, seeded from the existing
// assignment, and a full re-detection (run on a pooled engine, scratch
// recycled across refreshes) re-anchors quality once enough of the graph
// has drifted.
//
// A Stream is not safe for concurrent use.
type Stream struct {
	m *dynamic.Maintainer
}

// StreamOption configures a Stream's incremental-maintenance policy.
type StreamOption func(*dynamic.Options) error

// BatchSize sets how many buffered edges are applied at once (default
// 1024). Flush applies a partial batch early.
func BatchSize(n int) StreamOption {
	return func(o *dynamic.Options) error {
		if n <= 0 {
			return fmt.Errorf("grappolo: BatchSize must be positive, got %d", n)
		}
		o.BatchSize = n
		return nil
	}
}

// RefreshFraction sets the touched-vertex fraction that triggers a full
// re-detection (default 0.25). Must be in (0, 1].
func RefreshFraction(f float64) StreamOption {
	return func(o *dynamic.Options) error {
		if f <= 0 || f > 1 {
			return fmt.Errorf("grappolo: RefreshFraction must be in (0, 1], got %v", f)
		}
		o.RefreshFraction = f
		return nil
	}
}

// NewStream seeds a stream with an initial graph and runs the first full
// detection. Detection options (the same Option values New accepts)
// configure the full re-detection runs; stream options configure batching
// and refresh policy. The incremental overlay maintains standard
// modularity, so CPM and Async configurations are rejected. The seed is
// checked as every detection entry point checks its graph: ErrNilGraph for
// nil, an *InputError when its total edge weight is not finite.
func NewStream(seed *Graph, detectOpts []Option, streamOpts ...StreamOption) (*Stream, error) {
	if err := checkGraph(seed); err != nil {
		return nil, err
	}
	o, err := buildOptions(detectOpts)
	if err != nil {
		return nil, err
	}
	if o.Objective == core.ObjCPM {
		return nil, fmt.Errorf("grappolo: streaming maintains modularity; CPM is not supported")
	}
	if o.Async {
		return nil, fmt.Errorf("grappolo: streaming requires deterministic full runs; Async is not supported")
	}
	do := dynamic.Options{Workers: o.Workers, Full: o.Defaults()}
	for _, so := range streamOpts {
		if so == nil {
			return nil, fmt.Errorf("grappolo: nil StreamOption")
		}
		if err := so(&do); err != nil {
			return nil, err
		}
	}
	return &Stream{m: dynamic.New(seed, do)}, nil
}

// AddEdge buffers an undirected edge insertion; endpoints beyond the
// current vertex set grow it (new vertices start as singleton communities).
// The edge is applied once the buffer reaches BatchSize, or on Flush.
// A negative endpoint is rejected with an *InputError naming "edge", and a
// weight that is not a positive finite number, or that would make the
// total edge weight infinite, with ErrBadEdgeWeight; either leaves the
// stream unchanged.
func (s *Stream) AddEdge(u, v int32, w float64) error {
	return s.AddEdgeCtx(context.Background(), u, v, w)
}

// AddEdgeCtx is AddEdge under a context: if buffering crosses BatchSize,
// the triggered batch apply (and any full re-detection it escalates to)
// honors ctx. See FlushCtx for the failure contract.
func (s *Stream) AddEdgeCtx(ctx context.Context, u, v int32, w float64) error {
	if u < 0 || v < 0 {
		return &InputError{Arg: "edge", Reason: fmt.Sprintf("negative vertex id in (%d, %d)", u, v)}
	}
	return s.m.AddEdgeCtx(ctx, u, v, w)
}

// Flush applies all buffered edges and runs the incremental update (or a
// full re-detection if drift crossed the refresh fraction). A non-nil
// error comes from the full re-detection; see FlushCtx.
func (s *Stream) Flush() error { return s.m.FlushCtx(context.Background()) }

// FlushCtx is Flush honoring ctx during the full re-detection a flush may
// escalate to. On error the buffered edges HAVE been applied to the overlay
// (membership for new vertices is their singleton seed), but the refresh is
// still owed: drift accounting is retained, so the next successful flush
// re-runs it. Incremental-only flushes cannot fail.
func (s *Stream) FlushCtx(ctx context.Context) error { return s.m.FlushCtx(ctx) }

// N returns the current vertex count.
func (s *Stream) N() int { return s.m.N() }

// Membership returns the current community assignment. The slice is live —
// it changes on the next Flush; copy it to retain a snapshot.
func (s *Stream) Membership() []int32 { return s.m.Membership() }

// Modularity returns the modularity of the current assignment on the live
// overlay.
func (s *Stream) Modularity() float64 { return s.m.Modularity() }

// Snapshot materializes the current graph as an immutable Graph, e.g. for
// re-scoring or offline comparison.
func (s *Stream) Snapshot() *Graph { return s.m.Snapshot() }

// FullRuns reports how many full re-detections have happened (including the
// seeding one); BatchApplies how many incremental batches were applied.
func (s *Stream) FullRuns() int     { return s.m.FullRuns() }
func (s *Stream) BatchApplies() int { return s.m.BatchApplies() }
