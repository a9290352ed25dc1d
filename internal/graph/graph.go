// Package graph provides the weighted undirected graph substrate used by the
// community-detection algorithms: a compressed sparse row (CSR)
// representation, a deduplicating builder, file I/O, and the degree
// statistics the paper reports in Table 1.
//
// Conventions (paper §2): the graph G(V, E, ω) is undirected with positive
// edge weights; self-loops (i, i) are allowed, multi-edges are not (the
// builder merges them by summing weights). Each undirected edge {i, j},
// i ≠ j, is stored in both adjacency rows; a self-loop is stored once, in
// its owner's row. The weighted degree k_i sums the row of i (a self-loop
// therefore counts once in k_i, matching the paper's k_i = Σ_{j∈Γ(i)} ω(i,j)),
// and m = ½ Σ_i k_i.
package graph

import (
	"fmt"
	"math"
)

// Graph is an immutable weighted undirected graph in CSR form.
// Vertex ids are dense in [0, N()).
type Graph struct {
	offsets []int64   // len n+1; row i is adj[offsets[i]:offsets[i+1]]
	adj     []int32   // neighbor ids
	weights []float64 // parallel to adj
	degree  []float64 // weighted degree k_i (row sums, self-loop once)
	totalW  float64   // 2m' = Σ k_i; m = totalW / 2
	loops   int64     // number of self-loop arcs, cached at build time
	maxOut  int       // max unweighted out-degree, cached at build time

	// Memoized content hashes, accessed atomically (plain words, not
	// atomic.Uint64, so a Graph header stays freely copyable). 0 means "not
	// computed yet" — both hash functions normalize a computed 0 to 1 — and
	// finish() resets both, which is what keeps a FromCSRInto-recycled
	// header from serving the previous graph's identity.
	fpHash     uint64 // sampled Fingerprint.Hash
	strongHash uint64 // full-content hash (StrongHash)
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// ArcCount returns the number of stored directed arcs (each undirected
// non-loop edge contributes two, each self-loop one).
func (g *Graph) ArcCount() int64 { return int64(len(g.adj)) }

// EdgeCount returns the number of undirected edges M (self-loops count as
// one edge each). The self-loop count is cached at build time, so this is
// O(1) rather than a scan over all arcs.
func (g *Graph) EdgeCount() int64 {
	return (int64(len(g.adj))-g.loops)/2 + g.loops
}

// SelfLoopCount returns the number of self-loop arcs, cached at build time.
func (g *Graph) SelfLoopCount() int64 { return g.loops }

// MaxOutDegree returns the maximum unweighted out-degree over all vertices
// (0 for an empty graph), cached at build time. Hot-path callers size their
// per-worker neighbor-community accumulators with it.
func (g *Graph) MaxOutDegree() int { return g.maxOut }

// ArcOffsets returns the CSR offset array (length N()+1): an exclusive
// prefix sum of per-vertex arc counts, directly usable as the weight prefix
// of par.ForChunkPrefix for arc-balanced vertex chunking. Callers must not
// modify it.
func (g *Graph) ArcOffsets() []int64 { return g.offsets }

// TotalWeight returns Σ_i k_i = 2m.
func (g *Graph) TotalWeight() float64 { return g.totalW }

// M returns m, the sum of all edge weights as defined in the paper
// (m = ½ Σ_i k_i).
func (g *Graph) M() float64 { return g.totalW / 2 }

// Degree returns the weighted degree k_i.
func (g *Graph) Degree(i int) float64 { return g.degree[i] }

// Degrees returns the full weighted-degree slice. Callers must not modify it.
func (g *Graph) Degrees() []float64 { return g.degree }

// OutDegree returns the unweighted number of stored neighbors of i
// (self-loop counts once).
func (g *Graph) OutDegree(i int) int { return int(g.offsets[i+1] - g.offsets[i]) }

// Neighbors returns the neighbor ids and weights of vertex i as shared
// sub-slices of the CSR arrays. Callers must not modify them.
func (g *Graph) Neighbors(i int) ([]int32, []float64) {
	lo, hi := g.offsets[i], g.offsets[i+1]
	return g.adj[lo:hi], g.weights[lo:hi]
}

// SelfLoopWeight returns the weight of the self-loop at i, or 0.
func (g *Graph) SelfLoopWeight(i int) float64 {
	nbr, w := g.Neighbors(i)
	for t, j := range nbr {
		if j == int32(i) {
			return w[t]
		}
	}
	return 0
}

// HasEdge reports whether the undirected edge {i, j} exists.
func (g *Graph) HasEdge(i, j int) bool {
	nbr, _ := g.Neighbors(i)
	for _, v := range nbr {
		if v == int32(j) {
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of edge {i, j} and whether it exists.
func (g *Graph) EdgeWeight(i, j int) (float64, bool) {
	nbr, w := g.Neighbors(i)
	for t, v := range nbr {
		if v == int32(j) {
			return w[t], true
		}
	}
	return 0, false
}

// Validate checks structural invariants: offsets monotone, neighbor ids in
// range, positive weights, and symmetry (every arc i→j with i≠j has a
// matching j→i arc of equal weight). It is used by tests and after file
// loads; algorithms assume a valid graph.
func (g *Graph) Validate() error {
	if err := checkOffsets(g.offsets, len(g.adj), len(g.weights)); err != nil {
		return err
	}
	n := g.N()
	var sum float64
	for i := 0; i < n; i++ {
		nbr, w := g.Neighbors(i)
		seen := make(map[int32]struct{}, len(nbr))
		for t, j := range nbr {
			if j < 0 || int(j) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", i, j)
			}
			if w[t] <= 0 || math.IsNaN(w[t]) || math.IsInf(w[t], 0) {
				return fmt.Errorf("graph: edge (%d,%d) has non-positive weight %v", i, j, w[t])
			}
			if _, dup := seen[j]; dup {
				return fmt.Errorf("graph: duplicate arc %d->%d", i, j)
			}
			seen[j] = struct{}{}
			if int(j) != i {
				wj, ok := (&reverseProbe{g}).weight(int(j), i)
				if !ok {
					return fmt.Errorf("graph: missing reverse arc %d->%d", j, i)
				}
				if wj != w[t] {
					return fmt.Errorf("graph: asymmetric weight on edge {%d,%d}: %v vs %v", i, j, w[t], wj)
				}
			}
			sum += w[t]
		}
	}
	if math.Abs(sum-g.totalW) > 1e-6*(1+math.Abs(g.totalW)) {
		return fmt.Errorf("graph: cached total weight %v != recomputed %v", g.totalW, sum)
	}
	return nil
}

// checkOffsets checks the CSR row index on its own: it starts at 0, never
// decreases, and ends at the adjacency length, which the weights match.
func checkOffsets(offsets []int64, adjLen, weightsLen int) error {
	if len(offsets) == 0 || offsets[0] != 0 {
		return fmt.Errorf("graph: bad offsets header")
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i-1] > offsets[i] {
			return fmt.Errorf("graph: offsets not monotone at %d", i-1)
		}
	}
	if offsets[len(offsets)-1] != int64(adjLen) || adjLen != weightsLen {
		return fmt.Errorf("graph: adjacency length mismatch")
	}
	return nil
}

type reverseProbe struct{ g *Graph }

func (r *reverseProbe) weight(i, j int) (float64, bool) { return r.g.EdgeWeight(i, j) }

// Stats summarizes the unweighted degree distribution of a graph exactly as
// Table 1 of the paper reports it: vertex count, edge count, and the
// maximum, average, and relative standard deviation (RSD = stddev/mean) of
// vertex degrees.
type Stats struct {
	N      int
	M      int64
	MaxDeg int
	AvgDeg float64
	RSD    float64
}

// ComputeStats computes Table 1-style statistics. Degrees are unweighted
// neighbor counts (self-loop counts once), matching the paper's table.
func ComputeStats(g *Graph) Stats {
	n := g.N()
	st := Stats{N: n, M: g.EdgeCount()}
	if n == 0 {
		return st
	}
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		d := float64(g.OutDegree(i))
		if g.OutDegree(i) > st.MaxDeg {
			st.MaxDeg = g.OutDegree(i)
		}
		sum += d
		sumSq += d * d
	}
	mean := sum / float64(n)
	st.AvgDeg = mean
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	if mean > 0 {
		st.RSD = math.Sqrt(variance) / mean
	}
	return st
}

// String renders the stats as a Table 1 row.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d M=%d max=%d avg=%.3f rsd=%.3f", s.N, s.M, s.MaxDeg, s.AvgDeg, s.RSD)
}
