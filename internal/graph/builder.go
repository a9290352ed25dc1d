package graph

import (
	"fmt"
	"sort"
	"sync/atomic"

	"grappolo/internal/par"
)

// Edge is one undirected input edge. Endpoints may appear in either order;
// W <= 0 is treated as weight 1 (unweighted input, paper §2 footnote 1).
type Edge struct {
	U, V int32
	W    float64
}

// Builder accumulates undirected edges and produces a Graph. Duplicate
// edges (in either orientation) are merged by summing their weights, so the
// result never contains multi-edges. The zero value is ready to use.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a builder for a graph with n vertices. Additional
// vertices are added implicitly by AddEdge if an endpoint exceeds n-1.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// Grow ensures the vertex set covers ids [0, n).
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// AddEdge records the undirected edge {u, v} with weight w (w <= 0 means 1).
func (b *Builder) AddEdge(u, v int32, w float64) {
	if u < 0 || v < 0 {
		panic("graph: negative vertex id")
	}
	if w <= 0 {
		w = 1
	}
	if int(u) >= b.n {
		b.n = int(u) + 1
	}
	if int(v) >= b.n {
		b.n = int(v) + 1
	}
	b.edges = append(b.edges, Edge{U: u, V: v, W: w})
}

// AddEdges records a batch of edges.
func (b *Builder) AddEdges(edges []Edge) {
	for _, e := range edges {
		b.AddEdge(e.U, e.V, e.W)
	}
}

// EdgeCount returns the number of raw (pre-merge) edges recorded so far.
func (b *Builder) EdgeCount() int { return len(b.edges) }

// Build assembles the CSR graph using p workers. The builder can be reused
// afterwards (its recorded edges are untouched).
func (b *Builder) Build(p int) *Graph {
	return FromEdges(b.n, b.edges, p)
}

// FromEdges builds a Graph with n vertices from an undirected edge list,
// merging duplicates, using p workers. The input slice is not modified.
//
// The construction is the standard two-pass CSR build: count row lengths,
// exclusive prefix sum, scatter, then a per-row sort + in-place merge of
// duplicate neighbors. Counting and scattering use atomics; the per-row
// normalization is embarrassingly parallel.
func FromEdges(n int, edges []Edge, p int) *Graph {
	counts := make([]int64, n+1)
	par.ForChunk(len(edges), p, 0, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			e := edges[t]
			atomicInc(&counts[e.U])
			if e.U != e.V {
				atomicInc(&counts[e.V])
			}
		}
	})
	total := par.ExclusivePrefixSum(counts[:n+1], p)
	offsets := counts // counts now holds exclusive prefix sums; alias for clarity
	adj := make([]int32, total)
	weights := make([]float64, total)
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	par.ForChunk(len(edges), p, 0, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			e := edges[t]
			w := e.W
			if w <= 0 {
				w = 1
			}
			pos := atomicAdd(&cursor[e.U], 1) - 1
			adj[pos], weights[pos] = e.V, w
			if e.U != e.V {
				pos = atomicAdd(&cursor[e.V], 1) - 1
				adj[pos], weights[pos] = e.U, w
			}
		}
	})
	g := &Graph{offsets: offsets, adj: adj, weights: weights}
	g.normalizeRows(p)
	g.finish(p)
	return g
}

// normalizeRows sorts each adjacency row by neighbor id and merges duplicate
// neighbors by summing weights, compacting rows in place and then squeezing
// the CSR arrays.
func (g *Graph) normalizeRows(p int) {
	n := g.N()
	newLen := make([]int64, n+1)
	par.ForChunk(n, p, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s, e := g.offsets[i], g.offsets[i+1]
			row := rowSorter{adj: g.adj[s:e], w: g.weights[s:e]}
			sort.Sort(row)
			// Merge duplicates in place.
			out := 0
			for t := 0; t < len(row.adj); t++ {
				if out > 0 && row.adj[out-1] == row.adj[t] {
					row.w[out-1] += row.w[t]
				} else {
					row.adj[out], row.w[out] = row.adj[t], row.w[t]
					out++
				}
			}
			newLen[i] = int64(out)
		}
	})
	total := par.ExclusivePrefixSum(newLen[:n+1], p)
	if total == int64(len(g.adj)) { // no duplicates anywhere
		return
	}
	adj := make([]int32, total)
	weights := make([]float64, total)
	par.ForChunk(n, p, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			src := g.offsets[i]
			dst := newLen[i]
			cnt := newLen[i+1] - newLen[i]
			copy(adj[dst:dst+cnt], g.adj[src:src+cnt])
			copy(weights[dst:dst+cnt], g.weights[src:src+cnt])
		}
	})
	g.offsets, g.adj, g.weights = newLen, adj, weights
}

// finish computes the cached degrees, total weight, self-loop count, and
// maximum out-degree. It reuses g's degree array when the capacity allows and
// routes every loop through the captureless ...Ctx forms, so rebuilding a
// pooled Graph (FromCSRInto) allocates nothing in steady state.
func (g *Graph) finish(p int) {
	n := g.N()
	// The CSR content just changed (fresh build or a recycled header):
	// drop the memoized identity before it can describe the wrong graph.
	atomic.StoreUint64(&g.strongHash, 0)
	g.degree = par.Resize(g.degree, n)
	g.loops = 0
	par.ForChunkCtx(g, n, p, 0, func(g *Graph, lo, hi int) {
		var chunkLoops int64
		for i := lo; i < hi; i++ {
			nbr, w := g.Neighbors(i)
			s := 0.0
			for t, x := range w {
				s += x
				if nbr[t] == int32(i) {
					chunkLoops++
				}
			}
			g.degree[i] = s
		}
		atomic.AddInt64(&g.loops, chunkLoops)
	})
	// Cheap O(n) reductions over cached per-row data (no arc traffic).
	g.maxOut = int(par.MaxInt64Ctx(g, n, p, func(g *Graph, i int) int64 {
		return g.offsets[i+1] - g.offsets[i]
	}))
	g.totalW = par.SumFloat64Ctx(g, n, p, func(g *Graph, i int) float64 { return g.degree[i] })
}

// FromCSR constructs a Graph directly from CSR arrays that are already
// sorted, deduplicated and symmetric. It takes ownership of the slices.
// Used by the coarsening step, which produces normalized rows by
// construction. Set check to true to validate (tests).
func FromCSR(offsets []int64, adj []int32, weights []float64, p int, check bool) (*Graph, error) {
	return FromCSRInto(nil, offsets, adj, weights, p, check)
}

// FromCSRInto is FromCSR recycling dst: the Graph header and its cached
// degree array are reused (grown only when the vertex count exceeds the
// previous capacity), so a pooled caller — core.Engine's per-level coarse
// graph slots — rebuilds a same-shaped graph without allocating. dst may be
// nil, in which case a fresh Graph is built. Any prior contents of dst are
// invalidated; callers must not retain views of the previous graph.
func FromCSRInto(dst *Graph, offsets []int64, adj []int32, weights []float64, p int, check bool) (*Graph, error) {
	if check {
		// finish slices every row, so malformed offsets must fail first.
		if err := checkOffsets(offsets, len(adj), len(weights)); err != nil {
			return nil, fmt.Errorf("graph: invalid CSR input: %w", err)
		}
	}
	if dst == nil {
		dst = &Graph{}
	}
	dst.offsets, dst.adj, dst.weights = offsets, adj, weights
	dst.finish(p)
	if check {
		if err := dst.Validate(); err != nil {
			return nil, fmt.Errorf("graph: invalid CSR input: %w", err)
		}
	}
	return dst, nil
}

type rowSorter struct {
	adj []int32
	w   []float64
}

func (r rowSorter) Len() int { return len(r.adj) }

// Less orders by neighbor id, then weight. The weight tie-break matters:
// duplicate edges land in each endpoint's row in scheduler-dependent order,
// and float addition is not associative, so summing them in scatter order
// could leave the two directions of an edge differing in the last ULP.
// Sorting duplicates by weight makes the merged sum — and therefore the
// whole build — bit-deterministic for any worker count.
func (r rowSorter) Less(i, j int) bool {
	if r.adj[i] != r.adj[j] {
		return r.adj[i] < r.adj[j]
	}
	return r.w[i] < r.w[j]
}
func (r rowSorter) Swap(i, j int) {
	r.adj[i], r.adj[j] = r.adj[j], r.adj[i]
	r.w[i], r.w[j] = r.w[j], r.w[i]
}
