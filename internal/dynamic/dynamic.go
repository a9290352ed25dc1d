// Package dynamic maintains communities under a stream of edge insertions —
// the paper's future-work item (i): "extending the experiments to
// larger-scale inputs ... and targeting community detection in real-time".
//
// The maintainer keeps the current graph as an adjacency-map overlay plus
// the last detected partitioning. Edge arrivals are buffered into batches;
// when a batch is applied, only the vertices whose neighborhoods changed
// (and their communities) are re-decided with Louvain local moves, seeded
// from the existing assignment — the standard incremental-Louvain recipe.
// When drift accumulates (tracked by the fraction of vertices touched since
// the last full optimization), the maintainer triggers a full parallel
// re-run to re-anchor quality.
package dynamic

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"grappolo/internal/core"
	"grappolo/internal/graph"
	"grappolo/internal/par"
)

// ErrBadWeight is returned by AddEdge for a weight that is not a positive
// finite number, or that would make the total edge weight infinite once the
// buffered edges are applied. NaN, ±Inf, zero and negative weights are all
// rejected: a single NaN admitted into the overlay poisons m2, the degrees
// and every community degree, making Modularity() NaN forever after, and a
// silent ≤0→1 coercion would hide caller bugs the same way the
// pre-validation Options fields used to. An infinite total does the same to
// m2, and a full re-detection on it never ends. Match with errors.Is.
var ErrBadWeight = errors.New("dynamic: edge weight must be a positive finite number")

// Options configure the maintainer.
type Options struct {
	// Workers for full re-runs (<= 0: all CPUs).
	Workers int
	// BatchSize is the number of buffered edges applied at once
	// (default 1024). Apply can also be called manually.
	BatchSize int
	// RefreshFraction triggers a full re-run once the touched-vertex
	// fraction since the last full run exceeds it (default 0.25).
	RefreshFraction float64
	// Core options used for full re-runs; zero value = BaselineVFColor.
	Full core.Options
}

func (o Options) defaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 1024
	}
	if o.RefreshFraction <= 0 {
		o.RefreshFraction = 0.25
	}
	zero := core.Options{}
	if o.Full == zero {
		o.Full = core.BaselineVFColor(o.Workers)
	}
	return o
}

// Maintainer holds the evolving graph and its community assignment.
type Maintainer struct {
	opts Options
	// engine is the reusable detection pipeline for full re-runs: scratch
	// (phase arrays, rebuild arenas, coloring buffers) is recycled across
	// Flush-triggered re-detections instead of re-allocated, which is
	// exactly the repeated-run workload core.Engine exists for. The
	// maintainer is single-threaded, matching the engine's no-concurrent-Run
	// rule.
	engine *core.Engine
	// adj is the live adjacency overlay: adj[u][v] = weight.
	adj []map[int32]float64
	// comm is the current community of each vertex; degree the weighted
	// degree; commDeg the community degrees (a_C); m2 the total weight.
	comm    []int32
	degree  []float64
	commDeg []float64
	m2      float64
	pending []graph.Edge
	// pendingM2 is m2 once pending is applied, summed in the order
	// FlushCtx applies it; meaningful only while pending is not empty.
	pendingM2 float64
	touched   map[int32]struct{}
	// acc gathers a frontier vertex's neighbor-community weights in
	// localOptimize; community ids are vertex ids, so grow keeps its
	// universe at the vertex count.
	acc *par.SparseAccum
	// fullRun scratch, persistent across refreshes: the snapshot edge
	// staging buffer and the engine's run target.
	edgeBuf []graph.Edge
	fullRes *core.Result
	// stats
	fullRuns     int
	batchApplies int
}

// New creates a maintainer seeded with an initial graph and a fresh full
// detection run.
func New(g *graph.Graph, opts Options) *Maintainer {
	m := newOverlay(g, opts)
	// The background context cannot fire; under injected faults a canceled
	// seeding run leaves the identity assignment, which the first Flush's
	// refresh retry re-anchors.
	_ = m.fullRun(context.Background())
	return m
}

// NewSeeded creates a maintainer over g adopting an existing community
// assignment instead of running a cold full detection — the serving-tier
// fast path: a cached membership for g seeds incremental maintenance with
// ZERO engine runs. membership must assign every vertex of g a community id
// in [0, g.N()); ids need not be dense. FullRuns starts at 0.
func NewSeeded(g *graph.Graph, membership []int32, opts Options) (*Maintainer, error) {
	m := newOverlay(g, opts)
	n := g.N()
	if len(membership) != n {
		return nil, fmt.Errorf("dynamic: seed membership has %d entries for a %d-vertex graph", len(membership), n)
	}
	m.comm = par.Resize(m.comm, n)
	m.commDeg = par.Resize(m.commDeg, n)
	for i := range m.commDeg {
		m.commDeg[i] = 0
	}
	for i, c := range membership {
		if c < 0 || int(c) >= n {
			return nil, fmt.Errorf("dynamic: seed membership[%d] = %d out of range [0, %d)", i, c, n)
		}
		m.comm[i] = c
		m.commDeg[c] += m.degree[i]
	}
	return m, nil
}

// newOverlay builds the adjacency-map overlay of g (shared by New and
// NewSeeded) with an identity community assignment.
func newOverlay(g *graph.Graph, opts Options) *Maintainer {
	opts = opts.defaults()
	n := g.N()
	m := &Maintainer{
		opts:    opts,
		engine:  core.NewEngine(opts.Full),
		adj:     make([]map[int32]float64, n),
		comm:    make([]int32, n),
		degree:  make([]float64, n),
		commDeg: make([]float64, n),
		touched: make(map[int32]struct{}),
		acc:     par.NewSparseAccum(n, g.MaxOutDegree()+1),
	}
	for i := 0; i < n; i++ {
		nbr, wts := g.Neighbors(i)
		m.adj[i] = make(map[int32]float64, len(nbr))
		for t, j := range nbr {
			m.adj[i][j] = wts[t]
		}
		m.degree[i] = g.Degree(i)
		m.m2 += g.Degree(i)
		m.comm[i] = int32(i)
		m.commDeg[i] = g.Degree(i)
	}
	return m
}

// N returns the current vertex count.
func (m *Maintainer) N() int { return len(m.adj) }

// Membership returns the current community assignment (live slice; copy if
// retaining).
func (m *Maintainer) Membership() []int32 { return m.comm }

// FullRuns reports how many full re-detections have happened (including the
// initial one for New-constructed maintainers; NewSeeded starts at 0).
func (m *Maintainer) FullRuns() int { return m.fullRuns }

// BatchApplies reports how many incremental batches have been applied.
func (m *Maintainer) BatchApplies() int { return m.batchApplies }

// Modularity recomputes Eq. (3) on the live overlay.
//
// Self-loop convention (audited against seq.Modularity on Snapshot()): a
// self-loop is stored once in its owner's adjacency map, counted once in
// the vertex degree and once in `within`, while a non-loop edge appears in
// both endpoints' maps and is therefore counted twice — exactly the CSR
// convention of package graph (k_i = row sum, 2m = Σ k_i), so the overlay
// score matches the reference implementation bit-for-bit on streams with
// self-loops. TestSelfLoopStreamMatchesReference pins this.
func (m *Maintainer) Modularity() float64 {
	if m.m2 == 0 {
		return 0
	}
	within := 0.0
	a := make([]float64, len(m.adj))
	for u := range m.adj {
		a[m.comm[u]] += m.degree[u]
		for v, w := range m.adj[u] {
			if m.comm[v] == m.comm[int32(u)] {
				within += w
			}
		}
	}
	var null float64
	for _, ac := range a {
		f := ac / m.m2
		null += f * f
	}
	return within/m.m2 - null
}

// AddEdge buffers an undirected edge insertion; endpoints beyond the
// current vertex set grow it (new vertices start as singletons). The edge
// is applied when the buffer reaches BatchSize (or on Flush). A batch
// applied from inside this call runs under the background context; use
// AddEdgeCtx to make it cancellable.
func (m *Maintainer) AddEdge(u, v int32, w float64) error {
	return m.AddEdgeCtx(context.Background(), u, v, w)
}

// AddEdgeCtx is AddEdge threading ctx into any batch application (and full
// re-detection) the insertion triggers. The edge itself is validated and
// buffered unconditionally; only the apply can fail with ctx's error, with
// the same recovery semantics as FlushCtx.
func (m *Maintainer) AddEdgeCtx(ctx context.Context, u, v int32, w float64) error {
	if u < 0 || v < 0 {
		return fmt.Errorf("dynamic: negative vertex id (%d, %d)", u, v)
	}
	// NaN fails every ordered comparison, so w <= 0 alone would admit it —
	// the historical bug this check pins shut. Inf survives the sign test
	// too and overflows m2 just as irreversibly.
	if !(w > 0) || math.IsInf(w, 0) {
		return fmt.Errorf("%w: edge (%d, %d) has weight %v", ErrBadWeight, u, v, w)
	}
	total := m.m2
	if len(m.pending) > 0 {
		total = m.pendingM2
	}
	if u == v {
		total += w
	} else {
		total += 2 * w
	}
	if math.IsInf(total, 0) {
		return fmt.Errorf("%w: edge (%d, %d) of weight %v makes the total edge weight infinite", ErrBadWeight, u, v, w)
	}
	m.pendingM2 = total
	m.pending = append(m.pending, graph.Edge{U: u, V: v, W: w})
	if len(m.pending) >= m.opts.BatchSize {
		return m.FlushCtx(ctx)
	}
	return nil
}

// Flush applies all buffered edges and runs the incremental update under
// the background context (it cannot be canceled; the only error source is
// cancellation, so Flush cannot fail outside injected-fault builds).
func (m *Maintainer) Flush() { _ = m.FlushCtx(context.Background()) }

// FlushCtx applies all buffered edges and runs the incremental update — or
// a full re-detection when drift crossed RefreshFraction — under ctx,
// honoring the chunk-granular cancellation contract of the engine. On
// cancellation the overlay is already consistent (the batch's edges, m2,
// degrees and community degrees are applied) but the community assignment
// is stale: the touched set is retained, so the next FlushCtx (or Flush)
// retries the refresh. The error is ctx's error.
func (m *Maintainer) FlushCtx(ctx context.Context) error {
	if len(m.pending) == 0 {
		// Nothing buffered — but a refresh owed by a previously failed
		// full run (touched still at or past the threshold, which no
		// successful flush leaves behind) must still be retried here, or
		// an idle stream would stay stale until the next edge arrives.
		if !m.refreshDue() {
			return nil
		}
		return m.fullRun(ctx)
	}
	m.batchApplies++
	for _, e := range m.pending {
		m.grow(int(e.U) + 1)
		m.grow(int(e.V) + 1)
		m.adj[e.U][e.V] += e.W
		m.degree[e.U] += e.W
		if e.U != e.V {
			m.adj[e.V][e.U] += e.W
			m.degree[e.V] += e.W
			m.m2 += 2 * e.W
		} else {
			m.m2 += e.W
		}
		m.commDeg[m.comm[e.U]] += e.W
		if e.U != e.V {
			m.commDeg[m.comm[e.V]] += e.W
		}
		m.touched[e.U] = struct{}{}
		m.touched[e.V] = struct{}{}
	}
	m.pending = m.pending[:0]

	if m.refreshDue() {
		return m.fullRun(ctx)
	}
	m.localOptimize()
	return nil
}

// refreshDue reports whether accumulated drift has crossed the
// full-re-detection threshold.
func (m *Maintainer) refreshDue() bool {
	return float64(len(m.touched)) >= m.opts.RefreshFraction*float64(len(m.adj))
}

// Grow extends the vertex set to cover ids [0, n); new vertices join as
// singleton communities with fresh labels. Callers feeding an edge delta
// use it to cover trailing ISOLATED vertices of the target graph, which no
// inserted edge would ever mention.
func (m *Maintainer) Grow(n int) { m.grow(n) }

// grow extends the vertex set to n vertices; new vertices are singleton
// communities with a fresh label.
func (m *Maintainer) grow(n int) {
	for len(m.adj) < n {
		id := int32(len(m.adj))
		m.adj = append(m.adj, make(map[int32]float64, 2))
		m.degree = append(m.degree, 0)
		m.comm = append(m.comm, id)
		m.commDeg = append(m.commDeg, 0)
	}
	m.acc.Grow(n)
}

// localRounds is the number of local-move rounds per batch over the
// affected frontier.
const localRounds = 2

// localOptimize re-decides the touched frontier (touched vertices plus
// their neighbors) with serial Louvain local moves seeded from the current
// assignment, for localRounds rounds.
func (m *Maintainer) localOptimize() {
	frontier := make([]int32, 0, len(m.touched)*4)
	for v := range m.touched {
		frontier = append(frontier, v)
		for u := range m.adj[v] {
			frontier = append(frontier, u)
		}
	}
	// Each move reads the moves before it, so the visit order decides the
	// outcome. Ascending ids make it independent of map iteration order:
	// with integer weights every sum below is exact, and a batch's result
	// repeats from run to run.
	slices.Sort(frontier)
	frontier = slices.Compact(frontier)
	mval := m.m2 / 2
	if mval == 0 {
		return
	}
	for round := 0; round < localRounds; round++ {
		moved := 0
		for _, i := range frontier {
			ci := m.comm[i]
			ki := m.degree[i]
			// Aggregate neighbor communities, ci first.
			m.acc.Reset()
			m.acc.Ensure(ci)
			for j, w := range m.adj[i] {
				if j == i {
					continue
				}
				m.acc.Add(m.comm[j], w)
			}
			eOwn := m.acc.Val(ci)
			aOwn := m.commDeg[ci] - ki
			best, bestGain := ci, 0.0
			// The pick is the largest gain, ties to the smaller label, so
			// the candidates' order does not matter.
			for _, ct := range m.acc.Keys()[1:] {
				gain := (m.acc.Val(ct)-eOwn)/mval + (2*ki*aOwn-2*ki*m.commDeg[ct])/(m.m2*m.m2)
				if gain > bestGain || (gain == bestGain && gain > 0 && ct < best) {
					bestGain, best = gain, ct
				}
			}
			if best != ci && bestGain > 0 {
				m.commDeg[ci] -= ki
				m.commDeg[best] += ki
				m.comm[i] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// fullRun rebuilds a CSR snapshot and re-detects with the pooled engine,
// resetting drift tracking. All per-refresh scratch is persistent: the
// edge staging buffer, the engine's run target (RunIntoCtx recycles its
// membership/phase/trace arrays), the community-degree array and the
// touched set are reused across refreshes, so a steady stream of refreshes
// allocates only the snapshot CSR itself. On a ctx error nothing below the
// overlay is modified — comm, commDeg and touched keep their pre-refresh
// values and the refresh re-arms on the next flush.
func (m *Maintainer) fullRun(ctx context.Context) error {
	n := len(m.adj)
	m.edgeBuf = m.edgeBuf[:0]
	for u := range m.adj {
		for v, w := range m.adj[u] {
			if int32(u) <= v {
				m.edgeBuf = append(m.edgeBuf, graph.Edge{U: int32(u), V: v, W: w})
			}
		}
	}
	g := graph.FromEdges(n, m.edgeBuf, m.opts.Workers)
	res, err := m.engine.RunIntoCtx(ctx, g, m.fullRes)
	if err != nil {
		return err
	}
	m.fullRes = res
	// Copy rather than alias: the next refresh reuses res's membership as
	// engine scratch, and m.comm must survive it.
	m.comm = par.Resize(m.comm, n)
	copy(m.comm, res.Membership)
	m.commDeg = par.Resize(m.commDeg, n)
	for i := range m.commDeg {
		m.commDeg[i] = 0
	}
	for i := 0; i < n; i++ {
		m.commDeg[m.comm[i]] += m.degree[i]
	}
	clear(m.touched)
	m.fullRuns++
	return nil
}

// Snapshot materializes the current overlay as an immutable Graph, e.g. for
// offline scoring with the seq/quality packages.
func (m *Maintainer) Snapshot() *graph.Graph {
	n := len(m.adj)
	b := graph.NewBuilder(n)
	for u := range m.adj {
		for v, w := range m.adj[u] {
			if int32(u) <= v {
				b.AddEdge(int32(u), v, w)
			}
		}
	}
	return b.Build(m.opts.Workers)
}
