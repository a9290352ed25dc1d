package grappolo_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"grappolo"
)

// checkPartition asserts the cross-cutting detection invariants every fuzz
// input must satisfy: dense in-range membership, a community count matching
// the distinct labels, and a finite reported score consistent with an
// independent recomputation.
func checkPartition(t *testing.T, g *grappolo.Graph, res *grappolo.Result) {
	t.Helper()
	if len(res.Membership) != g.N() {
		t.Fatalf("membership length %d, want %d", len(res.Membership), g.N())
	}
	seen := make(map[int32]bool)
	for v, c := range res.Membership {
		if c < 0 || int(c) >= g.N() {
			t.Fatalf("vertex %d assigned out-of-range community %d", v, c)
		}
		seen[c] = true
	}
	if len(seen) != res.NumCommunities {
		t.Fatalf("NumCommunities=%d but %d distinct labels", res.NumCommunities, len(seen))
	}
	if math.IsNaN(res.Modularity) || math.IsInf(res.Modularity, 0) {
		t.Fatalf("non-finite modularity %v", res.Modularity)
	}
	if res.Modularity > 1+1e-12 {
		t.Fatalf("modularity %v > 1", res.Modularity)
	}
}

// FuzzGraphBuilder feeds arbitrary edge lists — self-loops, duplicates in
// both orientations, isolated vertices, zero and negative weights (the
// builder's documented unweighted-input coercion) — through the public
// Builder and a full detection. The graph must always pass its own
// Validate, and detection must produce a valid partition with a finite
// score; the graph must survive detection unmodified.
func FuzzGraphBuilder(f *testing.F) {
	f.Add(uint8(6), []byte{0, 1, 1, 0, 1, 2, 1, 0, 0, 2, 1, 0, 3, 3, 0, 0})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(40), []byte{0, 0, 0, 0, 5, 5, 128, 0, 7, 7, 255, 3, 1, 2, 3, 4, 2, 1, 3, 4})
	f.Add(uint8(13), []byte{12, 3, 200, 9, 3, 12, 200, 9, 12, 3, 0, 1})
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := int(nRaw)%64 + 1
		b := grappolo.NewBuilder(n)
		for i := 0; i+3 < len(data) && i < 4*512; i += 4 {
			u := int32(data[i]) % int32(n)
			v := int32(data[i+1]) % int32(n)
			// int8 reinterpretation covers negative and zero weights, which
			// the builder must coerce to 1 (unweighted-input convention);
			// the fractional part exercises weight merging.
			w := float64(int8(data[i+2])) + float64(data[i+3])/256
			b.AddEdge(u, v, w)
		}
		g := b.Build(2)
		if err := g.Validate(); err != nil {
			t.Fatalf("builder produced an invalid graph: %v", err)
		}
		weightBefore := g.TotalWeight()
		res, err := grappolo.Detect(context.Background(), g, grappolo.Workers(2))
		if err != nil {
			t.Fatalf("detection failed on a valid graph: %v", err)
		}
		checkPartition(t, g, res)
		if g.TotalWeight() != weightBefore {
			t.Fatal("detection mutated the input graph")
		}
	})
}

// FuzzDetectOptions drives arbitrary option combinations through New: every
// combination must either be rejected with a validation error (never a
// panic, never silent coercion into a run) or produce a valid partition on
// a fixed exercising graph. The raw float lanes feed gamma/threshold inputs
// with negatives, zeros, NaN and infinities. Coloring kinds 2 and 3 (two
// retired colorings) and 99 must be rejected. Flag bits 6 and 13 selected
// two retired options; they stay unassigned, so the committed corpus
// selects the same other options.
func FuzzDetectOptions(f *testing.F) {
	f.Add(uint16(0), int8(2), 1.0, 0.01, uint8(0))
	f.Add(uint16(0xffff), int8(1), 0.5, 1e-6, uint8(255))
	f.Add(uint16(1<<3|1<<4), int8(4), math.NaN(), -1.0, uint8(7))
	f.Add(uint16(1<<6|1<<7), int8(-1), math.Inf(1), 0.0, uint8(64))
	f.Fuzz(func(t *testing.T, flags uint16, workersRaw int8, gamma, threshold float64, knobs uint8) {
		var opts []grappolo.Option
		badKind := false
		opts = append(opts, grappolo.Workers(int(workersRaw)))
		if flags&(1<<0) != 0 {
			opts = append(opts, grappolo.VertexFollowing())
		}
		if flags&(1<<1) != 0 {
			opts = append(opts, grappolo.VFChains())
		}
		if flags&(1<<2) != 0 {
			kinds := []grappolo.ColoringKind{
				grappolo.NoColoring, grappolo.Distance1, grappolo.ColoringKind(2),
				grappolo.ColoringKind(3), grappolo.ColoringKind(99),
			}
			k := kinds[int(knobs)%len(kinds)]
			badKind = k != grappolo.NoColoring && k != grappolo.Distance1
			opts = append(opts, grappolo.Coloring(k))
		}
		if flags&(1<<3) != 0 {
			opts = append(opts, grappolo.FirstPhaseColoring())
		}
		if flags&(1<<4) != 0 {
			opts = append(opts, grappolo.ColoringCutoff(int(knobs)-8))
		}
		if flags&(1<<5) != 0 {
			modes := []grappolo.BalanceMode{
				grappolo.BalanceOff, grappolo.BalanceVertices,
				grappolo.BalanceArcs, grappolo.BalanceAuto, grappolo.BalanceMode(42),
			}
			opts = append(opts, grappolo.Balance(modes[int(knobs/8)%len(modes)]))
		}
		if flags&(1<<7) != 0 {
			opts = append(opts, grappolo.Thresholds(threshold, threshold/2))
		}
		if flags&(1<<8) != 0 {
			opts = append(opts, grappolo.Resolution(gamma))
		}
		if flags&(1<<9) != 0 {
			opts = append(opts, grappolo.CPM(gamma))
		}
		if flags&(1<<10) != 0 {
			opts = append(opts, grappolo.MaxIterations(int(knobs)%5))
		}
		if flags&(1<<11) != 0 {
			opts = append(opts, grappolo.MaxPhases(int(knobs)%4))
		}
		if flags&(1<<12) != 0 {
			opts = append(opts, grappolo.KeepHierarchy())
		}
		if flags&(1<<14) != 0 {
			opts = append(opts, grappolo.NoMinLabel())
		}
		if flags&(1<<15) != 0 {
			opts = append(opts, grappolo.Async())
		}
		det, err := grappolo.New(opts...)
		if badKind && err == nil {
			t.Fatal("New accepted an unknown ColoringKind")
		}
		if err != nil {
			return // rejected combination: the acceptable failure mode
		}
		// Two triangles bridged, plus a self-loop and an isolated vertex —
		// small enough for any accepted combination to finish instantly.
		b := grappolo.NewBuilder(8)
		for _, e := range [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}, {6, 6}} {
			b.AddEdge(e[0], e[1], 1)
		}
		g := b.Build(1)
		res, err := det.Detect(context.Background(), g)
		if err != nil {
			t.Fatalf("accepted configuration failed to run: %v", err)
		}
		checkPartition(t, g, res)
	})
}

// streamWeights are the weights FuzzStream feeds AddEdge: three the stream
// accepts, one only where the total stays finite, and four it must refuse.
var streamWeights = [8]float64{1, 2, 0.5, 0, -1, math.NaN(), math.Inf(1), 1e308}

// FuzzStream drives a Stream through edge batches: a seed graph of at most
// 16 vertices with integer weights 1–8, a BatchSize of 1–8, then a run of
// AddEdge and Flush calls with ids in [−2, 48) and weights from
// streamWeights. Nothing may panic, every error must be typed, and after
// each call the membership must give every vertex a label in [0, N()) and
// Q must be finite. Ids stay small: an id of 2^31−1 would grow the overlay
// to 2^31 vertices.
func FuzzStream(f *testing.F) {
	f.Add([]byte{6, 0, 3, 0, 1, 0, 1, 2, 3, 2, 0, 1, 1, 4, 5, 0, 0, 1, 9, 9, 7})
	f.Add([]byte{3, 1, 2, 0, 1, 7, 1, 2, 7, 1, 0, 2, 7, 1, 0, 1, 7, 1, 1, 1, 7, 0})
	f.Add([]byte{16, 7, 0, 2, 0, 60, 1, 3, 1, 5, 1, 48, 49, 4, 3, 2, 6, 0, 4, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := int(data[0])%16 + 1
		batch := int(data[1])%8 + 1
		k := int(data[2]) % 33
		data = data[3:]
		edges := make([]grappolo.Edge, 0, k)
		for ; k > 0 && len(data) >= 3; k-- {
			u, v := int32(data[0])%int32(n), int32(data[1])%int32(n)
			edges = append(edges, grappolo.Edge{U: u, V: v, W: float64(data[2]%8 + 1)})
			data = data[3:]
		}
		s, err := grappolo.NewStream(grappolo.FromEdges(n, edges, 1),
			[]grappolo.Option{grappolo.Workers(1)}, grappolo.BatchSize(batch))
		if err != nil {
			t.Fatalf("NewStream on a valid seed: %v", err)
		}
		check := func(call string, err error) {
			t.Helper()
			if err != nil && !errors.Is(err, grappolo.ErrBadEdgeWeight) && !errors.Is(err, grappolo.ErrInvalidInput) {
				t.Fatalf("%s: untyped error %v", call, err)
			}
			mem := s.Membership()
			if len(mem) != s.N() {
				t.Fatalf("%s: %d labels for %d vertices", call, len(mem), s.N())
			}
			for v, c := range mem {
				if c < 0 || int(c) >= s.N() {
					t.Fatalf("%s: vertex %d has label %d, want [0, %d)", call, v, c, s.N())
				}
			}
			if q := s.Modularity(); math.IsNaN(q) || math.IsInf(q, 0) {
				t.Fatalf("%s: Q = %v", call, q)
			}
		}
		for calls := 0; calls < 64 && len(data) > 0; calls++ {
			if data[0]%5 == 0 || len(data) < 4 {
				check("Flush", s.Flush())
				data = data[1:]
				continue
			}
			u, v := int32(data[1])%50-2, int32(data[2])%50-2
			w := streamWeights[data[3]%8]
			check(fmt.Sprintf("AddEdge(%d, %d, %v)", u, v, w), s.AddEdge(u, v, w))
			data = data[4:]
		}
	})
}
