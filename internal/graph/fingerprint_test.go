package graph

import "testing"

func fpGraph(t *testing.T, n int, edges [][3]float64) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(int32(e[0]), int32(e[1]), e[2])
	}
	return b.Build(2)
}

// TestFingerprintEqualContent pins that fingerprints identify graphs by
// content, not pointer: the same edge list built twice (different
// insertion order) fingerprints identically, and the fingerprint's hash is
// the full-content StrongHash.
func TestFingerprintEqualContent(t *testing.T) {
	edges := [][3]float64{{0, 1, 1}, {1, 2, 2}, {2, 0, 1}, {3, 3, 4}, {2, 4, 0.5}}
	a := fpGraph(t, 6, edges)
	reversed := make([][3]float64, len(edges))
	for i, e := range edges {
		reversed[len(edges)-1-i] = [3]float64{e[1], e[0], e[2]}
	}
	b := fpGraph(t, 6, reversed)
	if a == b {
		t.Fatal("test needs two distinct Graph values")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("equal-content graphs fingerprint differently:\n%+v\n%+v",
			a.Fingerprint(), b.Fingerprint())
	}
	if h := a.Fingerprint().Hash; h != a.StrongHash() {
		t.Fatalf("Fingerprint().Hash = %x, StrongHash() = %x", h, a.StrongHash())
	}
}

// TestFingerprintDistinguishes pins that every component — vertex count,
// arc count, weights and adjacency content — separates graphs.
func TestFingerprintDistinguishes(t *testing.T) {
	base := fpGraph(t, 5, [][3]float64{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}})
	variants := map[string]*Graph{
		"extra vertex":     fpGraph(t, 6, [][3]float64{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}}),
		"extra edge":       fpGraph(t, 5, [][3]float64{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}, {0, 2, 1}}),
		"heavier edge":     fpGraph(t, 5, [][3]float64{{0, 1, 2}, {1, 2, 1}, {3, 4, 1}}),
		"rewired edge":     fpGraph(t, 5, [][3]float64{{0, 2, 1}, {1, 2, 1}, {3, 4, 1}}),
		"self-loop":        fpGraph(t, 5, [][3]float64{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}, {2, 2, 1}}),
		"weight shuffled":  fpGraph(t, 5, [][3]float64{{0, 1, 1}, {1, 2, 2}, {3, 4, 0.5}}),
		"isolated differs": fpGraph(t, 7, [][3]float64{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}}),
	}
	fp := base.Fingerprint()
	for name, g := range variants {
		if g.Fingerprint() == fp {
			t.Errorf("%s: fingerprint collides with base", name)
		}
	}
}

// TestFingerprintDeterministicAcrossBuilds pins that fingerprints of a
// larger graph are stable across rebuilds with different worker counts.
func TestFingerprintDeterministicAcrossBuilds(t *testing.T) {
	const n = 500
	edges := make([]Edge, 0, 3*n)
	for i := 0; i < n; i++ {
		edges = append(edges,
			Edge{U: int32(i), V: int32((i + 1) % n), W: 1 + float64(i%7)},
			Edge{U: int32(i), V: int32((i * 13) % n), W: 0.5},
			Edge{U: int32(i), V: int32(i), W: 2})
	}
	var fps []Fingerprint
	for _, workers := range []int{1, 3, 8} {
		fps = append(fps, FromEdges(n, edges, workers).Fingerprint())
	}
	for _, fp := range fps[1:] {
		if fp != fps[0] {
			t.Fatalf("fingerprint varies with build worker count: %+v vs %+v", fp, fps[0])
		}
	}
}

// TestFingerprintZeroAllocs pins that fingerprinting is allocation-free —
// it sits on the cache's per-request path.
func TestFingerprintZeroAllocs(t *testing.T) {
	g := fpGraph(t, 5, [][3]float64{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}})
	allocs := testing.AllocsPerRun(100, func() { _ = g.Fingerprint() })
	if allocs != 0 {
		t.Errorf("Fingerprint allocates %v times, want 0", allocs)
	}
}

// TestStrongHashEqualContent pins that the full-content hash identifies
// graphs by canonical content regardless of build order.
func TestStrongHashEqualContent(t *testing.T) {
	edges := [][3]float64{{0, 1, 1}, {1, 2, 2}, {2, 0, 1}, {3, 3, 4}, {2, 4, 0.5}}
	a := fpGraph(t, 6, edges)
	reversed := make([][3]float64, len(edges))
	for i, e := range edges {
		reversed[len(edges)-1-i] = [3]float64{e[1], e[0], e[2]}
	}
	b := fpGraph(t, 6, reversed)
	if a.StrongHash() != b.StrongHash() {
		t.Fatalf("equal-content graphs strong-hash differently: %x vs %x",
			a.StrongHash(), b.StrongHash())
	}
}

// TestStrongHashZeroAllocsWarm pins the memoization: after the first call,
// StrongHash is a single atomic load.
func TestStrongHashZeroAllocsWarm(t *testing.T) {
	g := fpGraph(t, 5, [][3]float64{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}})
	g.StrongHash()
	allocs := testing.AllocsPerRun(100, func() { _ = g.StrongHash() })
	if allocs != 0 {
		t.Errorf("warm StrongHash allocates %v times, want 0", allocs)
	}
}

// TestRecycledGraphDropsMemoizedHashes pins the finish() reset: a Graph
// header recycled via FromCSRInto for different content must not serve the
// previous content's memoized identity.
func TestRecycledGraphDropsMemoizedHashes(t *testing.T) {
	g1 := fpGraph(t, 3, [][3]float64{{0, 1, 1}, {1, 2, 1}})
	fp1, sh1 := g1.Fingerprint(), g1.StrongHash()

	// Rebuild a different graph into the same header.
	g2 := fpGraph(t, 3, [][3]float64{{0, 1, 2}, {1, 2, 1}})
	off := append([]int64(nil), g2.ArcOffsets()...)
	adj := make([]int32, 0, g2.ArcCount())
	wts := make([]float64, 0, g2.ArcCount())
	for i := 0; i < g2.N(); i++ {
		nbr, w := g2.Neighbors(i)
		adj = append(adj, nbr...)
		wts = append(wts, w...)
	}
	recycled, err := FromCSRInto(g1, off, adj, wts, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if recycled.Fingerprint() == fp1 {
		t.Error("recycled graph served the previous graph's fingerprint")
	}
	if recycled.StrongHash() == sh1 {
		t.Error("recycled graph served the previous graph's strong hash")
	}
	if recycled.Fingerprint() != g2.Fingerprint() || recycled.StrongHash() != g2.StrongHash() {
		t.Error("recycled graph's identity does not match its content")
	}
}
