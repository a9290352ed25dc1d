package graph

import (
	"math"
	"sync/atomic"
)

// Fingerprint is the content identity of a Graph, used by the serving
// layer to coalesce concurrent detections on the same input and to serve
// repeats from its result store: two graphs with equal fingerprints are
// treated as the same graph. It holds the exact vertex count, arc count and
// total-weight bits, plus StrongHash, the hash of the full canonical CSR
// content, and is comparable (usable directly as a map key).
//
// Graphs that differ in N, Arcs or total weight always differ. Graphs that
// agree on all three share a fingerprint only if their full contents
// hash alike (see StrongHash), and the exact shape fields guarantee that a
// result stored under a fingerprint has the requesting graph's length.
type Fingerprint struct {
	N     int
	Arcs  int64
	WBits uint64 // math.Float64bits of the total weight 2m
	Hash  uint64 // StrongHash: full CSR content hash
}

// Fingerprint computes the content identity of g. It is deterministic for
// a given graph content (the CSR form is canonical: rows sorted, duplicates
// merged), so equal graphs built independently fingerprint equal, whatever
// worker count built them. Its hash is StrongHash's memo, so after the
// first call a fingerprint costs one atomic load and no allocation.
func (g *Graph) Fingerprint() Fingerprint {
	return Fingerprint{N: g.N(), Arcs: int64(len(g.adj)), WBits: math.Float64bits(g.totalW), Hash: g.StrongHash()}
}

// StrongHash returns the full-content hash of g: every offset, neighbor id
// and weight bit is mixed in, so two graphs share a StrongHash iff their
// canonical CSR contents are identical, up to a 2^-64 chain collision. It
// is Fingerprint's Hash.
//
// The first call pays one serial O(n + arcs) scan; the value is memoized on
// the immutable Graph, so steady-state serving reads it with an atomic load
// and zero allocations. Concurrent first calls race benignly: both compute
// the same value.
func (g *Graph) StrongHash() uint64 {
	if h := atomic.LoadUint64(&g.strongHash); h != 0 {
		return h
	}
	h := uint64(0x6a09e667f3bcc909)
	h = fpMix(h, uint64(g.N()))
	h = fpMix(h, uint64(len(g.adj)))
	h = fpMix(h, math.Float64bits(g.totalW))
	for _, o := range g.offsets {
		h = fpMix(h, uint64(o))
	}
	for _, v := range g.adj {
		h = fpMix(h, uint64(uint32(v)))
	}
	for _, w := range g.weights {
		h = fpMix(h, math.Float64bits(w))
	}
	if h == 0 {
		h = 1
	}
	atomic.StoreUint64(&g.strongHash, h)
	return h
}

// fpMix folds x into h with the splitmix64 finalizer — strong enough
// avalanche that a single-entry difference flips the hash.
func fpMix(h, x uint64) uint64 {
	h ^= x
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
