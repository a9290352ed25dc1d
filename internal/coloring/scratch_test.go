package coloring

import (
	"slices"
	"testing"

	"grappolo/internal/generate"
	"grappolo/internal/graph"
)

// TestScratchKernelsMatchFresh pins that the scratch-threaded kernels produce
// the same coloring as their allocating entry points, including when one
// Scratch is dragged across a sequence of differently-shaped graphs — the
// Engine's reuse pattern. Single worker keeps the speculative kernels
// deterministic so the comparison can be exact.
func TestScratchKernelsMatchFresh(t *testing.T) {
	graphs := []*graph.Graph{
		generate.MustGenerate(generate.CNR, generate.Small, 0, 4),
		clique(12),
		generate.MustGenerate(generate.UK2002, generate.Small, 0, 4),
		path(40),
	}
	kernels := []struct {
		name  string
		fresh func(g *graph.Graph) *Coloring
		with  func(g *graph.Graph, s *Scratch) *Coloring
	}{
		{"parallel",
			func(g *graph.Graph) *Coloring { return Parallel(g, 1) },
			func(g *graph.Graph, s *Scratch) *Coloring { return ParallelWith(g, 1, s) }},
		{"rebalance-arc",
			func(g *graph.Graph) *Coloring {
				base := Parallel(g, 1)
				return Rebalance(g, base, RebalanceOptions{Workers: 1, By: BalanceByArcs})
			},
			func(g *graph.Graph, s *Scratch) *Coloring {
				base := Parallel(g, 1)
				return Rebalance(g, base, RebalanceOptions{Workers: 1, By: BalanceByArcs, Scratch: s})
			}},
	}
	for _, k := range kernels {
		s := NewScratch()
		for gi, g := range graphs {
			want := k.fresh(g)
			got := k.with(g, s)
			if !slices.Equal(got.Colors, want.Colors) || got.NumColors != want.NumColors {
				t.Fatalf("%s graph %d: scratch colors differ from fresh", k.name, gi)
			}
			if len(got.Sets) != len(want.Sets) {
				t.Fatalf("%s graph %d: %d sets, want %d", k.name, gi, len(got.Sets), len(want.Sets))
			}
			for c := range want.Sets {
				if !slices.Equal(got.Sets[c], want.Sets[c]) {
					t.Fatalf("%s graph %d: set %d differs", k.name, gi, c)
				}
			}
		}
	}
}

// TestScratchSteadyStateZeroAllocs pins the Engine-facing invariant: a warmed
// Scratch colors (and rebalances) a same-shaped graph without allocating.
func TestScratchSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	g := generate.MustGenerate(generate.CNR, generate.Small, 0, 4)
	base, rebal := NewScratch(), NewScratch()
	work := func() {
		cs := ParallelWith(g, 1, base)
		Rebalance(g, cs, RebalanceOptions{Workers: 1, By: BalanceByArcs, Scratch: rebal})
	}
	work() // warm (arena pre-grow needs one full cycle)
	work()
	if allocs := testing.AllocsPerRun(10, work); allocs != 0 {
		t.Fatalf("warmed coloring scratch allocates %v times per cycle, want 0", allocs)
	}
}

// TestScratchResultAliasing documents the ownership rule: the next kernel
// call on a Scratch invalidates the previous result, and copying is the
// supported way to retain one.
func TestScratchResultAliasing(t *testing.T) {
	g := clique(8)
	s := NewScratch()
	first := ParallelWith(g, 1, s)
	kept := slices.Clone(first.Colors)
	_ = ParallelWith(path(8), 1, s)
	if !slices.Equal(kept, slices.Clone(kept)) {
		t.Fatal("unreachable")
	}
	// first.Colors aliases the scratch and has been rewritten for the path
	// graph; the retained copy is the stable view.
	if err := Verify(g, kept); err != nil {
		t.Fatalf("copied coloring invalidated: %v", err)
	}
}
