package graph

import (
	"math"

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
// The construction is a two-pass counting sort with no atomics. The edge
// list is cut into nw static chunks, the same in both passes. Chunk w
// counts its arcs per row into counts[w]. One pass over the rows sums the
// chunks' counts into row lengths for the prefix sum, and turns counts[w][u]
// into chunk w's cursor relative to the start of row u: chunk 0's arcs come
// first, then chunk 1's, and so on. Each chunk then scatters its arcs from
// its own cursors with plain writes, so every row holds its arcs in
// edge-list order whatever p is. normalizeRows sorts and merges the rows.
//
// nw is at most 2m/n, so the chunks' counters, n int32 each, add up to no
// more than 2m int32s, the arcs of a loop-free list. A row holds at most
// len(edges) arcs, which is what lets counters and cursors be int32:
// FromEdges takes fewer than 2^31 edges.
func FromEdges(n int, edges []Edge, p int) *Graph {
	m := len(edges)
	if m > math.MaxInt32 {
		panic("graph: FromEdges takes fewer than 2^31 edges")
	}
	nw := par.Workers(p, m)
	if n > 0 {
		nw = min(nw, max(1, 2*m/n))
	}
	counts := make([][]int32, nw)
	for w := range counts {
		counts[w] = make([]int32, n)
	}
	par.ForStatic(m, nw, func(w, lo, hi int) {
		c := counts[w]
		for _, e := range edges[lo:hi] {
			c[e.U]++
			if e.U != e.V {
				c[e.V]++
			}
		}
	})
	// Cursors are relative to the row start, so one pass over the rows
	// yields both the row lengths and every chunk's cursors.
	offsets := make([]int64, n+1)
	par.ForChunk(n, p, 0, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			var cur int32
			for _, c := range counts {
				c[u], cur = cur, cur+c[u]
			}
			offsets[u] = int64(cur)
		}
	})
	total := par.ExclusivePrefixSum(offsets, p)
	adj := make([]int32, total)
	weights := make([]float64, total)
	par.ForStatic(m, nw, func(w, lo, hi int) {
		cur := counts[w]
		for _, e := range edges[lo:hi] {
			wt := e.W
			if wt <= 0 {
				wt = 1
			}
			pos := offsets[e.U] + int64(cur[e.U])
			cur[e.U]++
			adj[pos], weights[pos] = e.V, wt
			if e.U != e.V {
				pos = offsets[e.V] + int64(cur[e.V])
				cur[e.V]++
				adj[pos], weights[pos] = e.U, wt
			}
		}
	})
	g := &Graph{offsets: offsets, adj: adj, weights: weights}
	g.normalizeRows(p)
	g.finish(p)
	return g
}

// normalizeRows sorts each adjacency row in row order (see arcLess) and
// merges duplicate neighbors by summing weights, compacting rows in place
// and then squeezing the CSR arrays. Loaders and generators list edges
// sorted, so most rows arrive sorted: a short row takes an insertion sort,
// which costs one pass on a sorted row, and a long row is checked before
// it is sorted.
func (g *Graph) normalizeRows(p int) {
	n := g.N()
	newLen := make([]int64, n+1)
	par.ForChunk(n, p, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s, e := g.offsets[i], g.offsets[i+1]
			adj, w := g.adj[s:e], g.weights[s:e]
			if len(adj) <= insertionRowMax {
				insertionSortRow(adj, w)
			} else if !rowSorted(adj, w) {
				heapSortRow(adj, w)
			}
			// Merge duplicates in place.
			out := 0
			for t := range adj {
				if out > 0 && adj[out-1] == adj[t] {
					w[out-1] += w[t]
				} else {
					adj[out], w[out] = adj[t], w[t]
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

// insertionRowMax is the longest row sorted by insertion; a longer row
// that arrives out of order is heap-sorted.
const insertionRowMax = 64

// arcLess is the row order: by neighbor id, then by weight. The weight
// tie-break fixes the order in which the merge adds up an edge's
// duplicates. Rows arrive in edge-list order, which the rows of both
// endpoints share, so the graph would stay symmetric without it; but float
// addition is not associative, and adding duplicates in ascending weight
// makes the merged bits a function of the edge multiset alone, not of the
// input's order, and keeps them equal to those of earlier builds.
func arcLess(v1 int32, w1 float64, v2 int32, w2 float64) bool {
	return v1 < v2 || (v1 == v2 && w1 < w2)
}

// insertionSortRow sorts the parallel slices adj and w in row order.
func insertionSortRow(adj []int32, w []float64) {
	for i := 1; i < len(adj); i++ {
		v, x := adj[i], w[i]
		j := i
		for ; j > 0 && arcLess(v, x, adj[j-1], w[j-1]); j-- {
			adj[j], w[j] = adj[j-1], w[j-1]
		}
		adj[j], w[j] = v, x
	}
}

// rowSorted reports whether adj and w are already in row order.
func rowSorted(adj []int32, w []float64) bool {
	for i := 1; i < len(adj); i++ {
		if arcLess(adj[i], w[i], adj[i-1], w[i-1]) {
			return false
		}
	}
	return true
}

// heapSortRow sorts a row in row order in place, in O(d log d) whatever
// order it arrives in.
func heapSortRow(adj []int32, w []float64) {
	for i := len(adj)/2 - 1; i >= 0; i-- {
		siftDownRow(adj, w, i, len(adj))
	}
	for end := len(adj) - 1; end > 0; end-- {
		adj[0], adj[end] = adj[end], adj[0]
		w[0], w[end] = w[end], w[0]
		siftDownRow(adj, w, 0, end)
	}
}

// siftDownRow moves the entry at root down the max-heap adj[:end].
func siftDownRow(adj []int32, w []float64, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && arcLess(adj[child], w[child], adj[child+1], w[child+1]) {
			child++
		}
		if !arcLess(adj[root], w[root], adj[child], w[child]) {
			return
		}
		adj[root], adj[child] = adj[child], adj[root]
		w[root], w[child] = w[child], w[root]
		root = child
	}
}
