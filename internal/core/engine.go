package core

import (
	"context"
	"time"

	"grappolo/internal/coloring"
	"grappolo/internal/faults"
	"grappolo/internal/graph"
	"grappolo/internal/par"
)

// Engine is a reusable parallel Louvain pipeline: it owns every piece of
// mutable scratch the one-shot Run would otherwise allocate per call — the
// phase working set (phaseState arrays and per-worker decide accumulators),
// the rebuild scratch (counting-sort buffers, per-worker row accumulators and
// staging arenas), the renumbering buffers, the coloring scratch (worklists,
// flat markers, set storage), the per-level coarse-graph slots, and the CPM
// node-size buffers. Everything is sized by high-water mark and recycled
// across phases AND across Run calls, so the second Run on a same-shaped
// graph performs zero scratch allocations (only the Result is allocated; see
// RunInto to recycle that too).
//
// Use one Engine per sequence of runs that share a configuration: dynamic
// overlays re-detecting on every flush, harness sweeps repeating a
// configuration, servers answering clustering requests back to back. An
// Engine is NOT safe for concurrent use — concurrent runs need one Engine
// each (the memory cost is bounded by the largest graph each engine has
// seen). Results returned by Run are independent of the engine and stay
// valid; coloring and phase internals are never exposed.
type Engine struct {
	opts Options

	st      phaseState
	rb      rebuildScratch
	slots   []*graphSlot
	slot    int
	colorSc *coloring.Scratch // base colorings
	rebalSc *coloring.Scratch // rebalanced colorings (both alive at once)

	// renumbering scratch: occupied flags/prefix and the dense output that
	// serves as the phase membership until it is folded and consumed.
	occupied []int64
	denseOut []int32

	// CPM node sizes, ping-ponged between phases; nsHist holds the pooled
	// per-worker partial histograms of the parallel re-aggregation.
	nodeSize []int64
	nsAlt    []int64
	nsHist   [][]int64
	arena    par.Arena
	nsc      nsCtx // re-aggregation loop context (pointer-passed)

	// vertex-following scratch.
	vfParent []int32
	vfMerged int64
	vfLoopAt []int64
	vfc      vfCtx // VF loop context (pointer-passed)

	fold foldCtx // membership-fold loop context (pointer-passed)

	// runCtx and cancel carry cooperative cancellation for the duration of
	// one RunCtx/RunIntoCtx call: the context is polled at the barriers
	// between chunked passes (phase, iteration and color-set boundaries) and
	// latched into the par.Cancel flag that sweep bodies observe per chunk,
	// so hot loops stay branch-light while cancellation still lands within
	// one chunk of work. Both are cleared when the run returns; plain
	// Run/RunInto leave runCtx nil and pay only nil checks.
	runCtx context.Context
	cancel par.Cancel
}

// graphSlot owns one coarse graph produced by a rebuild: the CSR arrays and
// the Graph header, recycled the next time the same rebuild depth is reached.
type graphSlot struct {
	g       *graph.Graph
	offsets []int64
	adj     []int32
	weights []float64
}

// NewEngine validates opts (panicking on any Options.Validate error — the
// public grappolo package validates first and surfaces the same conditions
// as errors) and returns an empty engine; all scratch is grown on first use.
func NewEngine(opts Options) *Engine {
	if err := opts.Validate(); err != nil {
		panic(err.Error())
	}
	opts = opts.Defaults()
	return &Engine{
		opts:    opts,
		colorSc: coloring.NewScratch(),
		rebalSc: coloring.NewScratch(),
	}
}

// Options returns the engine's (defaulted) configuration.
func (e *Engine) Options() Options { return e.opts }

// Run executes the full pipeline on g (see Run's package-level documentation)
// into a freshly allocated Result.
func (e *Engine) Run(g *graph.Graph) *Result {
	res, _ := e.runInto(nil, g, nil)
	return res
}

// RunCtx is Run honoring ctx: cancellation is polled cooperatively at the
// phase, iteration and color-set barriers of the pipeline and observed per
// chunk inside the sweeps via the latched par.Cancel flag, so even a single
// long sweep aborts within one chunk of work. The non-sweep steps (VF,
// coloring, rebuild) carry no checks and run to completion, bounding the
// worst-case cancellation latency by one such step. On cancellation it returns
// (nil, ctx.Err()); the engine's scratch stays consistent and the next run
// reuses it as usual. A nil or never-canceled context adds only nil checks
// at the barriers — the per-item hot loops are untouched.
func (e *Engine) RunCtx(ctx context.Context, g *graph.Graph) (*Result, error) {
	return e.runInto(ctx, g, nil)
}

// RunIntoCtx is RunInto honoring ctx (see RunCtx). On cancellation it
// returns (nil, ctx.Err()) and the contents of res are undefined; res's
// storage is not retained by the engine and may be passed to a later call.
func (e *Engine) RunIntoCtx(ctx context.Context, g *graph.Graph, res *Result) (*Result, error) {
	return e.runInto(ctx, g, res)
}

// CopyResultInto deep-copies src into dst, reusing dst's membership, phase,
// trace and hierarchy storage (grown only when the shapes differ), and
// returns dst; a nil dst allocates a fresh Result. It is the shared-result
// fan-out entry for the serving layer: one engine run writes a single
// Result, and CopyResultInto hands every coalesced waiter an independent
// copy with exactly the ownership semantics of a private run. A warm
// same-shape copy performs zero allocations. dst == src is a no-op.
func CopyResultInto(dst, src *Result) *Result {
	if dst == nil {
		dst = &Result{}
	}
	if dst == src {
		return dst
	}
	dst.Membership = par.Resize(dst.Membership, len(src.Membership))
	copy(dst.Membership, src.Membership)
	dst.NumCommunities = src.NumCommunities
	dst.Modularity = src.Modularity
	dst.TotalIterations = src.TotalIterations
	dst.Timing = src.Timing
	dst.Degraded = src.Degraded
	dst.Incremental = src.Incremental
	// Per-phase traces recycle the previous copy's backing by index — the
	// same convention runInto uses for RunInto results.
	oldPhases := dst.Phases
	dst.Phases = par.Resize(dst.Phases, len(src.Phases))
	for i, ph := range src.Phases {
		var trace []float64
		if i < len(oldPhases) {
			trace = oldPhases[i].Modularity[:0]
		}
		ph.Modularity = append(trace, ph.Modularity...)
		dst.Phases[i] = ph
	}
	oldLevels := dst.Levels
	dst.Levels = par.Resize(dst.Levels, len(src.Levels))
	for i, level := range src.Levels {
		var dl []int32
		if i < len(oldLevels) {
			dl = oldLevels[i]
		}
		dl = par.Resize(dl, len(level))
		copy(dl, level)
		dst.Levels[i] = dl
	}
	return dst
}

// stopRequested polls the run's cancellation source: once the context is
// done the flag latches, so every later check — including the per-chunk
// checks inside sweep bodies reading the same flag — is a single atomic
// load. Fault-injection builds may force a strike here (the
// cancel-at-chunk-N fault): it latches the same flag a real cancellation
// would, so the injected abort exercises exactly the production path.
func stopRequested(ctx context.Context, c *par.Cancel) bool {
	if faults.ShouldCancel(faults.EngineBarrier) {
		c.Set()
	}
	if c.Canceled() {
		return true
	}
	if ctx != nil && ctx.Err() != nil {
		c.Set()
		return true
	}
	return false
}

// cancelErr returns the error a canceled run reports. The nil-ctx case is
// reachable only under fault injection (a forced barrier strike during a
// context-free Run); it reports plain context.Canceled.
func cancelErr(ctx context.Context) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return context.Canceled
}

// nextSlot returns the coarse-graph slot for the current rebuild depth,
// growing the slot list on first descent past the previous maximum.
func (e *Engine) nextSlot() *graphSlot {
	if e.slot == len(e.slots) {
		e.slots = append(e.slots, &graphSlot{})
	}
	s := e.slots[e.slot]
	e.slot++
	return s
}

// rebuild coarsens g by membership into the next pooled graph slot.
func (e *Engine) rebuild(g *graph.Graph, membership []int32, numComm, workers int) *graph.Graph {
	return rebuildInto(&e.rb, e.nextSlot(), g, membership, numComm, workers)
}

// foldCtx carries the membership-fold inputs into the captureless loop body.
type foldCtx struct {
	total []int32 // original-vertex membership, updated in place
	phase []int32 // phase membership over the current coarse graph
}

func foldMembership(c *foldCtx, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.total[i] = c.phase[c.total[i]]
	}
}

// nsCtx carries the CPM node-size re-aggregation state into the captureless
// loop bodies.
type nsCtx struct {
	membership []int32
	nodeSize   []int64
	hist       [][]int64
	next       []int64
}

// reaggregateNodeSizes computes the next phase's per-community node sizes in
// parallel (per-worker partial histograms merged in worker order — integer
// sums, so the result is bit-identical to the former serial loop for any
// worker count), replacing the last serial step of the inter-phase rebuild.
func (e *Engine) reaggregateNodeSizes(membership []int32, nodeSize []int64, nc, workers int) []int64 {
	next := par.Resize(e.nsAlt, nc)
	nv := len(membership)
	nw := par.Workers(workers, nv)
	e.arena.Reset()
	hist := par.Resize(e.nsHist, nw)
	e.nsHist = hist
	for w := range hist {
		hist[w] = e.arena.Int64(nc)
	}
	ctx := &e.nsc
	*ctx = nsCtx{membership: membership, nodeSize: nodeSize, hist: hist, next: next}
	par.ForStaticCtx(ctx, nv, workers, func(c *nsCtx, w, lo, hi int) {
		h := c.hist[w]
		for v := lo; v < hi; v++ {
			h[c.membership[v]] += c.nodeSize[v]
		}
	})
	par.ForChunkCtx(ctx, nc, workers, 0, func(c *nsCtx, lo, hi int) {
		for t := lo; t < hi; t++ {
			var s int64
			for w := range c.hist {
				s += c.hist[w][t]
			}
			c.next[t] = s
		}
	})
	*ctx = nsCtx{}
	// Ping-pong: the previous sizes become the next round's spare buffer.
	e.nsAlt = nodeSize
	e.nodeSize = next
	return next
}

// runPhase executes the iterations of one phase per Algorithm 1 and returns
// the dense membership (aliasing the engine's pooled buffer — consumed by the
// fold and rebuild before the next phase), the trace, and the final score.
// colorSets is nil for uncolored phases; modBuf, when non-nil, is recycled
// backing for the per-iteration score trace.
func (e *Engine) runPhase(g *graph.Graph, threshold float64, colorSets *coloring.Coloring, nodeSize []int64, modBuf []float64) ([]int32, PhaseStats, float64, bool) {
	opts := e.opts
	workers := opts.Workers
	st := &e.st
	st.reset(g, opts, nodeSize, workers)
	st.ctx, st.cancel = e.runCtx, &e.cancel
	stats := PhaseStats{VertexCount: g.N(), Modularity: modBuf[:0]}
	iters, q, aborted := e.iterate(colorSets, opts.Async, threshold, &stats.Modularity)
	st.ctx = nil
	stats.Iterations = iters
	if aborted {
		return nil, stats, q, true
	}
	out := par.Resize(e.denseOut, g.N())
	e.denseOut = out
	occ := par.Resize(e.occupied, g.N()+1)
	e.occupied = occ
	renumberParallelInto(out, occ, st.curr, workers)
	return out, stats, q, false
}

// iterate runs the local-move iterations of one phase (Algorithm 1) from the
// assignment in the phase state's curr, until an iteration gains less than
// threshold or MaxIterations iterations ran. It appends each iteration's
// score to trace when trace is non-nil, and returns the iteration count, the
// final score and whether the run was canceled. A non-nil cs selects colored
// sweeps, async (with cs nil) live-state sweeps, and otherwise the sweeps are
// uncolored snapshot sweeps.
//
// A snapshot phase scores each state in the sweep that reads it (see
// sweepUncolored): sweep k+1 scores state k. Its first sweep therefore
// scores the starting assignment, and its last sweep — the one that finds
// the gain below threshold, or the one after MaxIterations — is
// speculative: curr ← prev undoes its moves. A sweep applies its
// predecessor's moves to the aggregates as it opens, so the speculative
// sweep's moves never reach them, and after the undo they describe curr.
// Iteration counts, score traces and memberships are those of scoring each
// state right after the sweep that made it; the phase pays one extra sweep
// instead of a scoring pass over every arc per iteration. Colored and async phases score each state
// after the sweep that made it. A colored phase scores its starting state
// once in full and every later state from the moves of the sweep that made
// it (scoreMoves); an async phase's adjacent vertices move at the same
// time, so it scores every state in full, and that score leaves the
// aggregates the next sweep starts from.
func (e *Engine) iterate(cs *coloring.Coloring, async bool, threshold float64, trace *[]float64) (int, float64, bool) {
	st := &e.st
	workers := e.opts.Workers
	maxIter := e.opts.MaxIterations
	snapshot := cs == nil && !async
	var q float64
	if snapshot {
		st.sweepUncolored(workers)
		q = st.reduceScore(st.sweptTotal(workers), workers)
	} else {
		q = st.score(workers)
	}
	iters := 0
	for maxIter == 0 || iters < maxIter {
		if st.stop() {
			return iters, q, true
		}
		var next float64
		switch {
		case cs != nil:
			st.sweepColored(cs.Sets, workers)
			next = st.scoreMoves(workers)
		case async:
			st.sweepAsync(workers)
			next = st.score(workers)
		default:
			st.sweepUncolored(workers)
			next = st.reduceScore(st.sweptTotal(workers), workers)
		}
		iters++
		if trace != nil {
			*trace = append(*trace, next)
		}
		gain := next - q
		q = next
		if gain < threshold {
			break
		}
	}
	if snapshot {
		copy(st.curr, st.prev) // undo the speculative sweep
	}
	return iters, q, st.stop()
}

// RunInto is Run recycling a previous Result: res's membership, phase, trace
// and hierarchy storage is reused (and the returned pointer is res itself),
// so a warmed engine re-running a same-shaped graph allocates nothing at
// all. The previous contents of res are invalidated. A nil res allocates a
// fresh Result, which is what Run passes.
func (e *Engine) RunInto(g *graph.Graph, res *Result) *Result {
	res, _ = e.runInto(nil, g, res)
	return res
}

// runInto is the shared pipeline behind Run/RunInto/RunCtx/RunIntoCtx. A nil
// ctx disables cancellation entirely; with a context, cancellation is polled
// at the level-loop and phase-sweep barriers and the error is ctx.Err().
func (e *Engine) runInto(ctx context.Context, g *graph.Graph, res *Result) (*Result, error) {
	opts := e.opts
	workers := opts.Workers
	n := g.N()
	e.slot = 0
	e.runCtx = ctx
	e.cancel.Reset()
	defer func() { e.runCtx = nil }()
	faults.Maybe(faults.EngineRun)

	if res == nil {
		res = &Result{}
	}
	oldPhases := res.Phases
	oldLevels := res.Levels
	res.Phases = res.Phases[:0]
	res.Levels = res.Levels[:0]
	res.Membership = par.Resize(res.Membership, n)
	res.NumCommunities = 0
	res.Modularity = 0
	res.TotalIterations = 0
	res.Timing = Breakdown{}
	res.Degraded = false
	res.Incremental = false
	par.ForChunkCtx(res.Membership, n, workers, 0, func(mem []int32, lo, hi int) {
		for i := lo; i < hi; i++ {
			mem[i] = int32(i)
		}
	})

	cur := g

	if stopRequested(ctx, &e.cancel) {
		return nil, cancelErr(ctx)
	}

	// Step 1: VF preprocessing (§5.3).
	if opts.VertexFollowing && n > 0 {
		t0 := time.Now()
		maxRounds := 1
		if opts.VFChainCompression {
			maxRounds = 64
		}
		// The composed VF mapping folds directly into res.Membership (already
		// the identity), avoiding a per-run mapping allocation.
		compressed, rounds := e.vertexFollowChain(cur, workers, maxRounds, res.Membership)
		if rounds > 0 {
			cur = compressed
		}
		res.Timing.VF = time.Since(t0)
	}

	// Under CPM, nodeSize tracks how many original vertices each
	// (meta-)vertex represents; nil under modularity.
	var nodeSize []int64
	if opts.Objective == ObjCPM {
		// The ping-pong of reaggregateNodeSizes can leave the largest buffer
		// in the spare slot at the end of a run; start from whichever of the
		// pair has the bigger capacity so warm runs never re-allocate.
		if cap(e.nsAlt) > cap(e.nodeSize) {
			e.nodeSize, e.nsAlt = e.nsAlt, e.nodeSize
		}
		nodeSize = par.Resize(e.nodeSize, cur.N())
		e.nodeSize = nodeSize
		for i := range nodeSize {
			nodeSize[i] = 1
		}
	}

	prevQ := -1e18
	colorEnabled := opts.Coloring != ColorOff
	for phase := 0; opts.MaxPhases == 0 || phase < opts.MaxPhases; phase++ {
		if cur.N() == 0 {
			break
		}
		if stopRequested(ctx, &e.cancel) {
			return nil, cancelErr(ctx)
		}
		// Step 2: coloring decision for this phase (§6.1 policy).
		colored := colorEnabled
		if opts.Coloring == ColorFirstPhase && phase > 0 {
			colored = false
		}
		if cur.N() < opts.ColoringVertexCutoff {
			colored = false
		}
		var cs *coloring.Coloring
		var colorTime time.Duration
		var colorRSD, colorArcRSD float64
		if colored {
			t0 := time.Now()
			cs = coloring.ParallelWith(cur, workers, e.colorSc)
			balance := opts.ColorBalance
			var cst coloring.Stats
			statsReady := false
			if balance == BalanceAuto {
				// Adaptive mode (§6.2 follow-on): rebalance by arcs exactly
				// when the base coloring's arc-load skew is bad enough to
				// cost more than the repair, measured by ArcRSD — the metric
				// the colored sweep's straggler time actually follows.
				cst = cs.ComputeStatsOn(cur)
				statsReady = true
				if cst.ArcRSD > BalanceAutoArcRSD {
					balance = BalanceArcs
				} else {
					balance = BalanceOff
				}
			}
			if balance != BalanceOff {
				by := coloring.BalanceByVertices
				if balance == BalanceArcs {
					by = coloring.BalanceByArcs
				}
				cs = coloring.Rebalance(cur, cs, coloring.RebalanceOptions{
					Workers: workers,
					By:      by,
					Scratch: e.rebalSc,
				})
				statsReady = false
			}
			colorTime = time.Since(t0)
			if !statsReady {
				cst = cs.ComputeStatsOn(cur)
			}
			colorRSD, colorArcRSD = cst.RSD, cst.ArcRSD
		}
		threshold := opts.FinalThreshold
		if colored {
			threshold = opts.ColoredThreshold
		}

		// Step 3: iterations. The per-iteration score trace recycles the
		// backing of the previous run's same-index phase when RunInto was
		// given one (read before this phase's stats are appended over it).
		var modBuf []float64
		if phase < len(oldPhases) {
			modBuf = oldPhases[phase].Modularity
		}
		t0 := time.Now()
		membership, stats, q, aborted := e.runPhase(cur, threshold, cs, nodeSize, modBuf)
		if aborted {
			return nil, cancelErr(ctx)
		}
		stats.ClusterTime = time.Since(t0)
		stats.Colored = colored
		if cs != nil {
			stats.NumColors = cs.NumColors
			stats.ColorSetRSD = colorRSD
			stats.ColorArcRSD = colorArcRSD
		}
		stats.ColoringTime = colorTime

		res.TotalIterations += stats.Iterations
		res.Timing.Coloring += colorTime
		res.Timing.Clustering += stats.ClusterTime

		// Fold the phase assignment into original-vertex membership.
		fold := &e.fold
		*fold = foldCtx{total: res.Membership, phase: membership}
		par.ForChunkCtx(fold, n, workers, 0, foldMembership)
		*fold = foldCtx{}
		if opts.KeepHierarchy {
			var level []int32
			if phase < len(oldLevels) {
				level = par.Resize(oldLevels[phase], n)
			} else {
				level = make([]int32, n)
			}
			copy(level, res.Membership)
			res.Levels = append(res.Levels, level)
		}
		res.Modularity = q
		gain := q - prevQ
		prevQ = q

		nc := int(maxInt32(membership)) + 1
		noMerge := nc == cur.N()

		// Termination / coloring-policy transitions (§6.1): colored phases
		// continue while they deliver at least ColoredThreshold gain; once
		// they do not, coloring is dropped and the remaining phases run to
		// the fine FinalThreshold.
		if colored {
			if gain < opts.ColoredThreshold {
				colorEnabled = false
			}
		} else if gain < opts.FinalThreshold && phase > 0 {
			res.Phases = append(res.Phases, stats)
			break
		}
		if noMerge && !colored {
			res.Phases = append(res.Phases, stats)
			break
		}

		// Step 4: rebuild for the next phase (§5.5).
		t0 = time.Now()
		if !noMerge {
			if nodeSize != nil {
				nodeSize = e.reaggregateNodeSizes(membership, nodeSize, nc, workers)
			}
			cur = e.rebuild(cur, membership, nc, workers)
		}
		stats.RebuildTime = time.Since(t0)
		res.Timing.Rebuild += stats.RebuildTime
		res.Phases = append(res.Phases, stats)
	}

	res.NumCommunities = int(maxInt32(res.Membership)) + 1
	if n == 0 {
		res.NumCommunities = 0
	}
	return res, nil
}
