package core

import (
	"grappolo/internal/graph"
	"grappolo/internal/par"
)

// vfCtx carries the vertex-following state into the captureless loop bodies
// (pointer-passed; see par.ForChunkWorkerCtx).
type vfCtx struct {
	g         *graph.Graph
	parent    []int32
	merged    *int64
	m2        float64
	chainMode bool
	// foldFollowers' inputs and outputs.
	dense   []int32   // each vertex's new id: its root's rank among the roots
	offsets []int64   // row lengths, then the new CSR offsets in place
	loopAt  []int64   // per new id: its loop entry's index in the row, then in the CSR; -1 if none
	adj     []int32   // new CSR targets
	weights []float64 // new CSR weights
}

func vfScan(c *vfCtx, lo, hi int) {
	local := int64(0)
	for i := lo; i < hi; i++ {
		c.parent[i] = int32(i)
		nbr, wts := c.g.Neighbors(i)
		switch {
		case len(nbr) == 1 && int(nbr[0]) != i:
			// Single-degree vertex: Lemma 3, unconditional merge.
			c.parent[i] = nbr[0]
			local++
		case c.chainMode && len(nbr) == 2 && c.m2 > 0:
			// Single-neighbor vertex: one self-loop + one edge (i, j).
			var j int32 = -1
			var wij float64
			for t, v := range nbr {
				if int(v) != i {
					if j >= 0 {
						j = -1 // two distinct neighbors: not single-neighbor
						break
					}
					j, wij = v, wts[t]
				}
			}
			if j >= 0 && wij > c.g.Degree(i)*c.g.Degree(int(j))/c.m2 {
				c.parent[i] = j
				local++
			}
		}
	}
	atomicAdd64(c.merged, local)
}

// vfBreakPairs resolves each mutual pair to its smaller id. A vertex that
// follows p has p as its only neighbor, so only p can follow it back. The
// smaller vertex of a pair writes its own entry; the id test comes first so
// that the larger one, the only other vertex that could read that entry,
// never does (the read would race with the write).
func vfBreakPairs(c *vfCtx, lo, hi int) {
	for i := lo; i < hi; i++ {
		p := c.parent[i]
		if p > int32(i) && c.parent[p] == int32(i) {
			c.parent[i] = int32(i)
		}
	}
}

func vfContract(c *vfCtx, lo, hi int) {
	for i := lo; i < hi; i++ {
		p := atomicLoad32(&c.parent[i])
		for {
			gp := atomicLoad32(&c.parent[p])
			if gp == p {
				break
			}
			p = gp
		}
		atomicStore32(&c.parent[i], p)
	}
}

// vertexFollow computes the VF preprocessing assignment of §5.3: every
// single-degree vertex (exactly one incident edge, which is not a
// self-loop) is merged into its sole neighbor. Lemma 3 guarantees the
// final Louvain solution would co-locate them anyway, so merging a priori
// shrinks the first phase without changing reachable quality.
//
// With chainMode set, the single-NEIGHBOR extension discussed at the end of
// §5.3 also applies: a vertex whose only edges are one edge (i, j) and an
// optional self-loop (i, i) — the shape produced by collapsing a chain tip —
// is merged into j when the explicit lower bound of inequality (10) is
// positive, i.e. ω(i,j) > k_i·k_j / (2m). Repeated passes therefore
// compress hanging chains from the tips inward and stop exactly when the
// negative term of the bound starts to dominate.
//
// It returns a dense community assignment over g's vertices (aliasing the
// engine's pooled renumber buffer, valid until the next renumbering) and the
// number of communities. If no vertex qualifies, ok is false and the inputs
// should be used unchanged. The scan and parent resolution are parallel.
func (e *Engine) vertexFollow(g *graph.Graph, workers int, chainMode bool) (membership []int32, numComm int, ok bool) {
	n := g.N()
	parent := par.Resize(e.vfParent, n)
	e.vfParent = parent
	e.vfMerged = 0
	ctx := &e.vfc
	*ctx = vfCtx{g: g, parent: parent, merged: &e.vfMerged,
		m2: g.TotalWeight(), chainMode: chainMode}
	par.ForChunkCtx(ctx, n, workers, 0, vfScan)
	if e.vfMerged == 0 {
		*ctx = vfCtx{}
		return nil, 0, false
	}
	// Break pointer cycles: if i and j point at each other (mutual pair),
	// or longer follow-chains arise in chain mode, resolve each vertex to a
	// representative by path-halving with the minimum-label rule (§5.1):
	// the smallest id on the cycle wins.
	par.ForChunkCtx(ctx, n, workers, 0, vfBreakPairs)
	// In chain mode two adjacent chain vertices may both merge inward,
	// producing pointer chains longer than one hop; contract every chain to
	// its root. Concurrent contraction of overlapping chains is safe (all
	// paths end at the same root) but must use atomics to be well-defined.
	par.ForChunkCtx(ctx, n, workers, 0, vfContract)
	*ctx = vfCtx{}
	out := par.Resize(e.denseOut, n)
	e.denseOut = out
	occ := par.Resize(e.occupied, n+1)
	e.occupied = occ
	renumberParallelInto(out, occ, parent, workers)
	numComm = int(maxInt32(out)) + 1
	return out, numComm, true
}

// vfRoot reports whether vertex v is a root of the VF assignment in c.parent
// (it follows no one).
func vfRoot(c *vfCtx, v int32) bool { return c.parent[v] == v }

// vfCountRows sizes the new row of each root r in [lo, hi): one entry per arc
// to another root, plus one loop entry if r has a self-loop or a follower.
// A root with followers has one as a neighbor, since every follow chain ends
// in an arc to its root, and a follower's neighbors are all in its root's
// community. loopAt records the loop entry's index in the row: after the
// entries of the roots with smaller ids, because renumbering keeps id order.
func vfCountRows(c *vfCtx, _, lo, hi int) {
	for r := lo; r < hi; r++ {
		if !vfRoot(c, int32(r)) {
			continue
		}
		nbr, _ := c.g.Neighbors(r)
		var before, after int64
		loop := false
		for _, j := range nbr {
			switch {
			case int(j) == r || !vfRoot(c, j):
				loop = true
			case int(j) < r:
				before++
			default:
				after++
			}
		}
		k := c.dense[r]
		c.loopAt[k] = -1
		if loop {
			c.loopAt[k] = before
			after++
		}
		c.offsets[k] = before + after
	}
}

// vfFillRows writes the new row of each root r in [lo, hi): r's row with
// every other root renumbered (so it stays sorted), and r's self-loop and
// arcs to its followers summed into the loop entry. loopAt becomes the loop
// entry's CSR index.
func vfFillRows(c *vfCtx, _, lo, hi int) {
	for r := lo; r < hi; r++ {
		if !vfRoot(c, int32(r)) {
			continue
		}
		nbr, wts := c.g.Neighbors(r)
		k := c.dense[r]
		t := c.offsets[k]
		at := int64(-1)
		if c.loopAt[k] >= 0 {
			at = t + c.loopAt[k]
		}
		loop := 0.0
		for x, j := range nbr {
			if int(j) == r || !vfRoot(c, j) {
				loop += wts[x]
				continue
			}
			if t == at {
				t++
			}
			c.adj[t], c.weights[t] = c.dense[j], wts[x]
			t++
		}
		if at >= 0 {
			c.adj[at], c.weights[at] = k, loop
		}
		c.loopAt[k] = at
	}
}

// vfAddFollowers adds the degree of each follower in [lo, hi) to its
// community's loop entry: every arc of a follower stays in its community.
func vfAddFollowers(c *vfCtx, lo, hi int) {
	for v := lo; v < hi; v++ {
		if !vfRoot(c, int32(v)) {
			par.AddFloat64(&c.weights[c.loopAt[c.dense[v]]], c.g.Degree(v))
		}
	}
}

// foldFollowers coarsens g by the VF assignment vertexFollow just computed
// (dense, over numComm communities, with e.vfParent still holding the
// roots) into the next pooled graph slot. It builds what rebuildInto would
// from the same assignment, without rebuildInto's counting sort, row
// gathers and sorts: each community is one root and its followers, no arc
// leaves a follower's community, and a root's other arcs go to roots, so the
// new row of a root is its own row renumbered, with one loop entry holding
// its self-loop, its arcs to its followers and its followers' degrees. With
// integer weights the result equals rebuildInto's bit for bit; otherwise the
// loop weights' sums may round differently.
func (e *Engine) foldFollowers(g *graph.Graph, dense []int32, numComm, workers int) *graph.Graph {
	slot := e.nextSlot()
	offsets := par.Resize(slot.offsets, numComm+1)
	offsets[numComm] = 0
	loopAt := par.Resize(e.vfLoopAt, numComm)
	e.vfLoopAt = loopAt
	ctx := &e.vfc
	*ctx = vfCtx{g: g, parent: e.vfParent, dense: dense, offsets: offsets, loopAt: loopAt}
	par.ForChunkPrefixCtx(ctx, g.ArcOffsets(), workers, vfCountRows)
	arcs := par.ExclusivePrefixSum(offsets, workers)
	ctx.adj = par.Resize(slot.adj, int(arcs))
	ctx.weights = par.Resize(slot.weights, int(arcs))
	par.ForChunkPrefixCtx(ctx, g.ArcOffsets(), workers, vfFillRows)
	par.ForChunkCtx(ctx, g.N(), workers, 0, vfAddFollowers)
	slot.offsets, slot.adj, slot.weights = offsets, ctx.adj, ctx.weights
	*ctx = vfCtx{}
	cg, err := graph.FromCSRInto(slot.g, slot.offsets, slot.adj, slot.weights, workers, false)
	if err != nil {
		panic(err) // unreachable with check=false
	}
	slot.g = cg
	return cg
}

// vertexFollowChain repeats VF passes on progressively coarsened graphs
// until no qualifying vertices remain (or maxRounds is hit), folding the
// composed mapping into total (which must come in as the identity over g's
// vertices). A single round with chainMode false is the paper's basic VF;
// multiple rounds with chainMode true implement the chain-compression
// extension of §5.3. Each round coarsens with foldFollowers, not the
// general rebuild. It returns the compressed graph (owned by the engine's
// graph slots) and how many VF passes were applied.
func (e *Engine) vertexFollowChain(g *graph.Graph, workers, maxRounds int, total []int32) (*graph.Graph, int) {
	n := len(total)
	cur := g
	rounds := 0
	chainMode := maxRounds > 1
	for rounds < maxRounds {
		membership, nc, ok := e.vertexFollow(cur, workers, chainMode)
		if !ok {
			break
		}
		rounds++
		cur = e.foldFollowers(cur, membership, nc, workers)
		fold := &e.fold
		*fold = foldCtx{total: total, phase: membership}
		par.ForChunkCtx(fold, n, workers, 0, foldMembership)
		*fold = foldCtx{}
	}
	return cur, rounds
}

// vertexFollow is the standalone form used by tests and benchmarks; the
// returned membership is freshly allocated.
func vertexFollow(g *graph.Graph, workers int, chainMode bool) ([]int32, int, bool) {
	e := &Engine{}
	membership, nc, ok := e.vertexFollow(g, workers, chainMode)
	if !ok {
		return nil, 0, false
	}
	out := make([]int32, len(membership))
	copy(out, membership)
	return out, nc, true
}

// vertexFollowChain is the standalone form used by tests: it allocates the
// composed mapping.
func vertexFollowChain(g *graph.Graph, workers, maxRounds int) (*graph.Graph, []int32, int) {
	e := &Engine{}
	total := make([]int32, g.N())
	for i := range total {
		total[i] = int32(i)
	}
	cur, rounds := e.vertexFollowChain(g, workers, maxRounds, total)
	return cur, total, rounds
}

func maxInt32(v []int32) int32 {
	m := int32(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
