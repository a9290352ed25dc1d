package graph

import (
	"fmt"
	"slices"
)

// GhostSubgraph extracts the subgraph induced by vertices — which become
// local vertices 0..len(vertices)-1 in the given order — plus one "ghost"
// vertex per distinct external neighbor, appended after the locals in
// ascending original-id order. It is the shard-extraction primitive of the
// sharded engine: unlike InducedSubgraph, cut edges are NOT dropped — each
// local–external edge is kept as a halo edge between the local vertex and
// the external endpoint's ghost, with its original weight, so a shard's
// local moves still feel the pull of cross-shard neighbors.
//
// Ghost–ghost edges are absent (a shard sees only its own halo), so a
// ghost's degree in the subgraph counts only its halo edges. Ghost vertices
// are meant to be FROZEN during clustering — seeded with their owning
// shard's community label and pinned (core.Engine.SweepSeeded pins exactly
// such a vertex suffix); clustering them as free vertices would let a shard
// move vertices it does not own.
//
// Returns the subgraph, the original ids of the ghosts (ascending; ghost t
// is subgraph vertex len(vertices)+t), and the old→new id mapping over all
// of g's vertices (-1 for vertices that are neither local nor ghost).
// Duplicate or out-of-range ids in vertices are rejected.
func GhostSubgraph(g *Graph, vertices []int32, p int) (*Graph, []int32, []int32, error) {
	n := g.N()
	remap := make([]int32, n)
	for i := range remap {
		remap[i] = -1
	}
	for t, v := range vertices {
		if v < 0 || int(v) >= n {
			return nil, nil, nil, fmt.Errorf("graph: vertex %d out of range [0,%d)", v, n)
		}
		if remap[v] != -1 {
			return nil, nil, nil, fmt.Errorf("graph: duplicate vertex %d in selection", v)
		}
		remap[v] = int32(t)
	}
	nLocal := len(vertices)

	// Pass 1: discover ghosts (external neighbors) and count halo arcs.
	var ghosts []int32
	for _, v := range vertices {
		nbr, _ := g.Neighbors(int(v))
		for _, j := range nbr {
			if remap[j] == -1 {
				remap[j] = -2 // marked external, index assigned below
				ghosts = append(ghosts, j)
			}
		}
	}
	slices.Sort(ghosts)
	for t, gv := range ghosts {
		remap[gv] = int32(nLocal + t)
	}
	ns := nLocal + len(ghosts)

	// Pass 2: row lengths. A local keeps its full row (every neighbor is
	// local or ghost); a ghost's row holds only its halo arcs back to locals.
	offsets := make([]int64, ns+1)
	for t, v := range vertices {
		offsets[t+1] = int64(g.OutDegree(int(v)))
	}
	for _, v := range vertices {
		nbr, _ := g.Neighbors(int(v))
		for _, j := range nbr {
			if t := remap[j]; int(t) >= nLocal {
				offsets[t+1]++
			}
		}
	}
	for i := 0; i < ns; i++ {
		offsets[i+1] += offsets[i]
	}
	total := offsets[ns]
	adj := make([]int32, total)
	weights := make([]float64, total)

	// Pass 3: scatter. Local rows fill in original neighbor order; ghost
	// rows fill in local scan order (ascending local id — rows need not be
	// sorted, only symmetric and duplicate-free, which this construction
	// guarantees because g's rows are).
	cursor := make([]int64, ns)
	copy(cursor, offsets[:ns])
	for t, v := range vertices {
		nbr, wts := g.Neighbors(int(v))
		base := cursor[t]
		for u, j := range nbr {
			adj[base+int64(u)] = remap[j]
			weights[base+int64(u)] = wts[u]
			if gt := remap[j]; int(gt) >= nLocal {
				pos := cursor[gt]
				adj[pos], weights[pos] = int32(t), wts[u]
				cursor[gt]++
			}
		}
		cursor[t] = base + int64(len(nbr))
	}

	sub, err := FromCSR(offsets, adj, weights, p, false)
	if err != nil {
		return nil, nil, nil, err // unreachable: check=false never errors
	}
	return sub, ghosts, remap, nil
}
