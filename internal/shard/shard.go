// Package shard implements a sharded parallel Louvain with ghost-label
// exchange — the scale-out promotion of the drop-cut-edges emulation in
// internal/distributed (the paper's §7 contrast point, its ref. [25]).
//
// The pipeline:
//
//  1. Partition the vertex set into shards (block ranges or arc-balanced
//     ranges — see PartitionMode).
//  2. Extract one subgraph per shard with graph.GhostSubgraph: the shard's
//     own vertices plus one frozen GHOST per external neighbor, every cut
//     edge kept as a local–ghost halo edge instead of dropped.
//  3. Run synchronized rounds of local moves: each shard sweeps its own
//     vertices with core.Engine.SweepSeeded — membership seeded from the
//     current global labels, ghosts pinned to their owners' labels — then
//     all shards exchange boundary labels at a barrier and re-seed. A
//     local vertex may adopt a ghost's label, forming cross-shard
//     communities the emulation structurally cannot find.
//  4. Merge at the master: coarsen the full graph by the exchanged labels
//     (cut edges now fully counted) and re-cluster the coarse graph with a
//     complete engine run.
//
// Each shard's sweep is deterministic for any worker count when edge weights
// are integers (for non-integer weights at one worker; see
// core.Engine.SweepSeeded), shards write disjoint label ranges between
// barriers, and the merge run is a normal engine run, so under the same
// condition the whole pipeline is deterministic for a fixed input and
// configuration (engines configured Async excepted).
package shard

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"grappolo/internal/core"
	"grappolo/internal/graph"
	"grappolo/internal/par"
	"grappolo/internal/seq"
)

// Options configure a sharded run. The per-shard sweep and master merge
// engines come from the Engines source and carry their own core.Options
// (workers, thresholds, resolution, coloring for the merge run).
type Options struct {
	// Shards is the number of partitions. It is clamped to [1, n]; 1 runs a
	// single full engine (no sharding). <= 0 defaults to 4.
	Shards int
	// Rounds is the number of ghost-label EXCHANGE rounds run after the
	// first local round: every shard always sweeps once, then Rounds more
	// times with ghost labels refreshed from the other shards at a barrier.
	// 0 means no exchange (halo edges still pull, but boundary labels stay
	// singletons). Negative is an error.
	Rounds int
	// Mode selects the partitioning strategy.
	Mode PartitionMode
	// Workers bounds the cross-shard helper parallelism (partitioning, cut
	// counting, label folding). <= 0 selects all CPUs. Engine-internal
	// parallelism is the engines' own Workers setting.
	Workers int
}

// Engines hands out clustering engines — the seam through which the public
// layer serves shard sweeps and the master merge from a grappolo.Pool. n is
// the vertex count of the graph the engine is about to see (the pool's size
// class). The release function must be called exactly once; ok=false marks
// the engine as possibly corrupted (its run panicked) so the source can
// quarantine it instead of recycling it.
type Engines interface {
	Acquire(ctx context.Context, n int) (eng *core.Engine, release func(ok bool), err error)
}

// Fresh is the trivial Engines source: a new engine per Acquire, dropped on
// release. It is the standalone/test source; serving paths use a pool.
type Fresh struct{ Opts core.Options }

// Acquire builds a fresh engine.
func (f Fresh) Acquire(ctx context.Context, n int) (*core.Engine, func(ok bool), error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return core.NewEngine(f.Opts), func(bool) {}, nil
}

// Result is the output of a sharded run.
type Result struct {
	// Membership assigns every original vertex a dense community id.
	Membership []int32
	// NumCommunities is the number of distinct ids in Membership.
	NumCommunities int
	// Modularity of the final partitioning on the input graph.
	Modularity float64
	// Shards and Rounds echo the effective (clamped) configuration.
	Shards int
	Rounds int
	// CutEdges is the number of cross-shard edges. Unlike the distributed
	// emulation these are KEPT as halo edges during the local rounds — the
	// count measures partition quality, not discarded information.
	CutEdges int64
	// LocalIterations sums the sweep iterations of every shard across every
	// round; MergeIterations counts the master run's iterations.
	LocalIterations int
	MergeIterations int
	// Timings of the pipeline stages. LocalTime is the wall time of the
	// slowest shard summed across rounds (the makespan of each round).
	PartitionTime time.Duration
	LocalTime     time.Duration
	MergeTime     time.Duration
}

// shardState is one shard's working set, reused across exchange rounds.
type shardState struct {
	verts  []int32      // owned original vertex ids, ascending
	sub    *graph.Graph // ghost subgraph: locals [0,len(verts)), ghosts after
	ghosts []int32      // original ids of the ghost suffix
	seed   []int32      // per-round local seed labels (dense in back)
	out    []int32      // per-round sweep output
	glob   []int32      // per-round global label of every sub vertex
	back   []int32      // sorted unique global labels; local label t ↔ back[t]
	iters  int          // sweep iterations accumulated across rounds
}

// Run executes the sharded pipeline on g. Engines for the per-shard sweeps
// and the master merge are checked out of src per use, so a bounded pool
// source serializes shards once they exceed its capacity instead of
// over-subscribing memory.
func Run(ctx context.Context, g *graph.Graph, opts Options, src Engines) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("shard: nil Engines source")
	}
	if opts.Rounds < 0 {
		return nil, fmt.Errorf("shard: negative Rounds %d", opts.Rounds)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.N()
	shards := opts.Shards
	if shards <= 0 {
		shards = 4
	}
	if shards > n {
		shards = n
	}
	res := &Result{Membership: make([]int32, n), Shards: shards, Rounds: opts.Rounds}
	if n == 0 {
		return res, nil
	}
	if shards <= 1 {
		res.Shards = 1
		return runSingle(ctx, g, res, src)
	}

	// 1. Partition + ghost-subgraph extraction (one goroutine per shard —
	// extraction is embarrassingly parallel across shards).
	start := time.Now()
	part, verts, err := partition(g, shards, opts.Mode)
	if err != nil {
		return nil, err
	}
	states := make([]*shardState, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		st := &shardState{verts: verts[s]}
		states[s] = st
		if len(st.verts) == 0 {
			continue
		}
		wg.Add(1)
		go func(st *shardState) {
			defer wg.Done()
			sub, ghosts, _, err := graph.GhostSubgraph(g, st.verts, 1)
			if err != nil {
				errs[indexOf(states, st)] = err
				return
			}
			ns := sub.N()
			st.sub, st.ghosts = sub, ghosts
			st.seed = make([]int32, ns)
			st.out = make([]int32, ns)
			st.glob = make([]int32, ns)
			st.back = make([]int32, 0, ns)
		}(st)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard: subgraph extraction: %w", err)
		}
	}
	res.CutEdges = countCutEdges(g, part, opts.Workers)
	res.PartitionTime = time.Since(start)

	// 2. Synchronized local rounds with ghost-label exchange. labels holds
	// the global community label of every vertex (initially singleton ids);
	// shards read it to seed a round and write their OWNED vertices into
	// next, so the exchange is race-free by construction and the swap at the
	// barrier publishes every shard's labels to every other shard's ghosts.
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = int32(v)
	}
	next := make([]int32, n)
	rounds := 1 + opts.Rounds
	for r := 0; r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		roundStart := time.Now()
		var changed atomic.Int64
		var panicked atomic.Value
		for s := 0; s < shards; s++ {
			st := states[s]
			if len(st.verts) == 0 {
				continue
			}
			wg.Add(1)
			go func(s int, st *shardState) {
				defer wg.Done()
				defer func() {
					if v := recover(); v != nil {
						panicked.CompareAndSwap(nil, v)
					}
				}()
				errs[s] = st.sweep(ctx, g, labels, next, src, &changed)
			}(s, st)
		}
		wg.Wait()
		if v := panicked.Load(); v != nil {
			// A panicking sweep already quarantined its engine via
			// release(ok=false); re-panic on the caller's goroutine so the
			// serving layers' quarantine semantics (Guard recovery) apply.
			panic(v)
		}
		res.LocalTime += time.Since(roundStart)
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		labels, next = next, labels
		if changed.Load() == 0 {
			// Label fixpoint: further exchanges cannot move anything.
			break
		}
	}
	for _, st := range states {
		res.LocalIterations += st.iters
	}

	// 3. Master merge: coarsen the FULL graph by the exchanged labels (cut
	// edges now aggregated into real meta-edges) and re-cluster the coarse
	// graph with a complete engine run — the step that recovers the quality
	// a partitioned local phase leaves on the table.
	start = time.Now()
	dense, numGlobal := renumber(labels)
	coarse := seq.Coarsen(g, dense, numGlobal)
	eng, release, err := src.Acquire(ctx, coarse.N())
	if err != nil {
		return nil, err
	}
	ok := false
	var mres *core.Result
	func() {
		defer func() { release(ok) }()
		mres, err = eng.RunIntoCtx(ctx, coarse, nil)
		ok = true
	}()
	if err != nil {
		return nil, err
	}
	fold := foldCtx{out: res.Membership, dense: dense, master: mres.Membership}
	par.ForChunkCtx(&fold, n, opts.Workers, 0, func(c *foldCtx, lo, hi int) {
		for v := lo; v < hi; v++ {
			c.out[v] = c.master[c.dense[v]]
		}
	})
	res.MergeTime = time.Since(start)
	res.MergeIterations = mres.TotalIterations
	res.NumCommunities = mres.NumCommunities
	// Modularity is invariant under the coarsening convention, so the master
	// run's score IS the score of the folded membership on g.
	res.Modularity = mres.Modularity
	return res, nil
}

type foldCtx struct {
	out, dense, master []int32
}

// sweep runs one shard's round: seed from the global labels, sweep with
// ghosts pinned, publish owned labels into next.
func (st *shardState) sweep(ctx context.Context, g *graph.Graph, labels, next []int32, src Engines, changed *atomic.Int64) error {
	nLocal := len(st.verts)
	ns := st.sub.N()
	// Global label of every subgraph vertex: locals then ghosts.
	for t, v := range st.verts {
		st.glob[t] = labels[v]
	}
	for t, gv := range st.ghosts {
		st.glob[nLocal+t] = labels[gv]
	}
	// Compress to the dense local label space the engine needs: back holds
	// the sorted unique global labels, so local label t ↔ back[t] and the
	// ascending order preserves min-label tie-break semantics globally.
	st.back = append(st.back[:0], st.glob...)
	slices.Sort(st.back)
	st.back = uniqueInt32(st.back)
	for i, gl := range st.glob {
		st.seed[i] = int32(searchInt32(st.back, gl))
	}

	eng, release, err := src.Acquire(ctx, ns)
	if err != nil {
		return err
	}
	ok := false
	defer func() { release(ok) }()
	iters, _, err := eng.SweepSeeded(ctx, st.sub, st.seed, nLocal, st.out)
	ok = true // a non-panicking sweep leaves the engine consistent, even canceled
	if err != nil {
		return err
	}
	st.iters += iters
	delta := int64(0)
	for t, v := range st.verts {
		nl := st.back[st.out[t]]
		next[v] = nl
		if nl != labels[v] {
			delta++
		}
	}
	changed.Add(delta)
	return nil
}

// runSingle is the shards<=1 degenerate path: one full engine run.
func runSingle(ctx context.Context, g *graph.Graph, res *Result, src Engines) (*Result, error) {
	eng, release, err := src.Acquire(ctx, g.N())
	if err != nil {
		return nil, err
	}
	ok := false
	var r *core.Result
	func() {
		defer func() { release(ok) }()
		r, err = eng.RunIntoCtx(ctx, g, nil)
		ok = true
	}()
	if err != nil {
		return nil, err
	}
	copy(res.Membership, r.Membership)
	res.NumCommunities = r.NumCommunities
	res.Modularity = r.Modularity
	res.MergeIterations = r.TotalIterations
	return res, nil
}

// countCutEdges counts undirected cross-shard edges with arc-balanced
// parallel chunks over the CSR prefix (each edge counted at its lower
// endpoint, so hubs cannot serialize the scan).
func countCutEdges(g *graph.Graph, part []int32, workers int) int64 {
	var cut atomic.Int64
	ctx := cutCtx{g: g, part: part, cut: &cut}
	par.ForChunkPrefixCtx(&ctx, g.ArcOffsets(), workers, func(c *cutCtx, w, lo, hi int) {
		var local int64
		for v := lo; v < hi; v++ {
			nbr, _ := c.g.Neighbors(v)
			pv := c.part[v]
			for _, j := range nbr {
				if int(j) > v && c.part[j] != pv {
					local++
				}
			}
		}
		c.cut.Add(local)
	})
	return cut.Load()
}

type cutCtx struct {
	g    *graph.Graph
	part []int32
	cut  *atomic.Int64
}

// renumber maps arbitrary int32 labels to dense ids in first-occurrence
// order, returning the dense slice and the id count.
func renumber(labels []int32) ([]int32, int) {
	dense := make([]int32, len(labels))
	remap := make([]int32, len(labels))
	for i := range remap {
		remap[i] = -1
	}
	nextID := int32(0)
	for v, l := range labels {
		if remap[l] < 0 {
			remap[l] = nextID
			nextID++
		}
		dense[v] = remap[l]
	}
	return dense, int(nextID)
}

func indexOf(states []*shardState, st *shardState) int {
	for i, s := range states {
		if s == st {
			return i
		}
	}
	return -1
}

// uniqueInt32 compacts a sorted slice in place.
func uniqueInt32(v []int32) []int32 {
	out := 0
	for i := range v {
		if out == 0 || v[out-1] != v[i] {
			v[out] = v[i]
			out++
		}
	}
	return v[:out]
}

// searchInt32 returns the index of x in the sorted slice v (x must be
// present — seeds are drawn from the same labels back was built from).
func searchInt32(v []int32, x int32) int {
	lo, hi := 0, len(v)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
