package shard

import (
	"fmt"

	"grappolo/internal/graph"
)

// PartitionMode selects how vertices are assigned to shards.
type PartitionMode int

const (
	// ModeBlock splits vertex ids into contiguous ranges of even VERTEX
	// count — the simplest static partition (and the one the distributed
	// emulation uses). Range p is [p·n/shards, (p+1)·n/shards).
	ModeBlock PartitionMode = iota
	// ModeArcs splits vertex ids into contiguous ranges of even ARC count
	// (boundaries found on the CSR offset prefix), so a few hub-heavy id
	// ranges cannot overload one shard the way even vertex counts let them.
	ModeArcs
)

// String names the mode for logs and errors.
func (m PartitionMode) String() string {
	switch m {
	case ModeBlock:
		return "block"
	case ModeArcs:
		return "arcs"
	}
	return fmt.Sprintf("PartitionMode(%d)", int(m))
}

// partition assigns every vertex of g to one of shards shards per mode,
// returning the per-vertex shard ids and the per-shard vertex lists
// (ascending within each shard). shards must already be clamped to [1, n].
func partition(g *graph.Graph, shards int, mode PartitionMode) ([]int32, [][]int32, error) {
	n := g.N()
	part := make([]int32, n)
	switch mode {
	case ModeBlock:
		for v := 0; v < n; v++ {
			part[v] = int32(blockOf(v, n, shards))
		}
	case ModeArcs:
		bounds := arcBounds(g, shards)
		s := 0
		for v := 0; v < n; v++ {
			for int64(v) >= bounds[s+1] {
				s++
			}
			part[v] = int32(s)
		}
	default:
		return nil, nil, fmt.Errorf("shard: unknown partition mode %d", int(mode))
	}

	sizes := make([]int, shards)
	for _, s := range part {
		sizes[s]++
	}
	verts := make([][]int32, shards)
	for s := range verts {
		verts[s] = make([]int32, 0, sizes[s])
	}
	for v := 0; v < n; v++ {
		s := part[v]
		verts[s] = append(verts[s], int32(v))
	}
	return part, verts, nil
}

// blockOf computes the owning block-partition range of v in O(1): range p is
// [⌊p·n/shards⌋, ⌊(p+1)·n/shards⌋), so p = ⌊((v+1)·shards − 1) / n⌋.
func blockOf(v, n, shards int) int {
	return ((v+1)*shards - 1) / n
}

// arcBounds computes contiguous range boundaries balanced by cumulative arc
// count: bounds[s] is the first vertex of shard s (bounds has shards+1
// entries). Zero-degree runs collapse onto one boundary, so trailing shards
// may be empty on pathological inputs.
func arcBounds(g *graph.Graph, shards int) []int64 {
	n := g.N()
	prefix := g.ArcOffsets()
	total := prefix[n]
	bounds := make([]int64, shards+1)
	bounds[shards] = int64(n)
	for s := 1; s < shards; s++ {
		target := int64(s) * total / int64(shards)
		lo, hi := 0, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if prefix[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		bounds[s] = int64(lo)
	}
	// Boundaries must be monotone even when many targets collapse onto the
	// same vertex (heavy hubs): enforce non-decreasing order.
	for s := 1; s <= shards; s++ {
		if bounds[s] < bounds[s-1] {
			bounds[s] = bounds[s-1]
		}
	}
	return bounds
}
