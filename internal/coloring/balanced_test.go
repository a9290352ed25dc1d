package coloring

import (
	"testing"

	"grappolo/internal/generate"
	"grappolo/internal/graph"
)

// skewedHub generates a hub-community graph with the uk-2002-style pathology
// the rebalancer targets: heavy hubs concentrate both colors and arcs.
func skewedHub(seed uint64) *graph.Graph {
	cfg := generate.HubCommunitiesConfig{
		Sizes:       generate.PowerLawCommunitySizes(120, 10, 600, 1.9, seed+1),
		IntraDegree: 6,
		CrossFrac:   0.15,
		HubFanout:   24,
	}
	g, _ := generate.HubCommunities(cfg, seed, 4)
	return g
}

func TestRebalanceArcModeBeatsVertexModeOnArcRSD(t *testing.T) {
	// The §6.2 acceptance bar: on a skewed hub graph, arc-balanced mode
	// must cut the per-color-set arc-count RSD by at least 2x versus
	// vertex-balanced mode, without increasing the color count.
	g := skewedHub(42)
	base := Parallel(g, 4)
	vert := Rebalance(g, base, RebalanceOptions{Workers: 4, By: BalanceByVertices})
	arc := Rebalance(g, base, RebalanceOptions{Workers: 4, By: BalanceByArcs})
	for name, c := range map[string]*Coloring{"vertex": vert, "arc": arc} {
		if err := Verify(g, c.Colors); err != nil {
			t.Fatalf("%s mode: %v", name, err)
		}
		if c.NumColors > base.NumColors {
			t.Fatalf("%s mode increased colors %d -> %d", name, base.NumColors, c.NumColors)
		}
	}
	sv, sa := vert.ComputeStatsOn(g), arc.ComputeStatsOn(g)
	if sa.ArcRSD*2 > sv.ArcRSD {
		t.Fatalf("arc mode ArcRSD %.4f not 2x below vertex mode %.4f", sa.ArcRSD, sv.ArcRSD)
	}
	t.Logf("base %s", base.ComputeStatsOn(g))
	t.Logf("vertex %s", sv)
	t.Logf("arc %s", sa)
}

func TestRebalanceDeterministicAcrossWorkers(t *testing.T) {
	// Proposals read only round-start state, resolution is a fixed rule, and
	// commits are serial in vertex order, so the repaired coloring is a pure
	// function of the base coloring — identical for every worker count.
	g := skewedHub(3)
	base := Parallel(g, 4)
	ref := Rebalance(g, base, RebalanceOptions{Workers: 1, By: BalanceByArcs})
	for _, p := range []int{2, 4, 8} {
		got := Rebalance(g, base, RebalanceOptions{Workers: p, By: BalanceByArcs})
		for i := range ref.Colors {
			if got.Colors[i] != ref.Colors[i] {
				t.Fatalf("p=%d differs from p=1 at vertex %d", p, i)
			}
		}
	}
}

// TestRebalanceProperty drives the rebalancer across seeds and modes on
// skewed hub graphs and asserts the three contract properties: the coloring
// stays valid, the color count never increases, and the balanced load's RSD
// is non-increasing round over round (checked via MaxRounds prefixes: the
// repair is deterministic, so a run capped at r rounds equals the first r
// rounds of a longer run).
func TestRebalanceProperty(t *testing.T) {
	for _, seed := range []uint64{2, 11, 23} {
		g := skewedHub(seed)
		base := Parallel(g, 4)
		for _, by := range []BalanceBy{BalanceByVertices, BalanceByArcs} {
			rsdOf := func(c *Coloring) float64 {
				st := c.ComputeStatsOn(g)
				if by == BalanceByArcs {
					return st.ArcRSD
				}
				return st.RSD
			}
			prev := rsdOf(base)
			for rounds := 1; rounds <= 6; rounds++ {
				bal := Rebalance(g, base, RebalanceOptions{Workers: 4, By: by, MaxRounds: rounds})
				if err := Verify(g, bal.Colors); err != nil {
					t.Fatalf("seed %d by %d rounds %d: %v", seed, by, rounds, err)
				}
				if bal.NumColors > base.NumColors {
					t.Fatalf("seed %d by %d rounds %d: colors %d -> %d",
						seed, by, rounds, base.NumColors, bal.NumColors)
				}
				rsd := rsdOf(bal)
				if rsd > prev+1e-9 {
					t.Fatalf("seed %d by %d: RSD rose %.6f -> %.6f at round %d",
						seed, by, prev, rsd, rounds)
				}
				prev = rsd
			}
		}
	}
}

func TestRebalanceSkipsIsolatedVerticesInArcMode(t *testing.T) {
	// Arc-weight-0 vertices cannot change any load; proposing them anyway
	// would commit no-op moves every round and spin until MaxRounds.
	b := graph.NewBuilder(40)
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			b.AddEdge(int32(i), int32(j), 1) // K8 forces 8 colors
		}
	}
	g := b.Build(2) // vertices 8..39 isolated
	base := Greedy(g)
	bal := Rebalance(g, base, RebalanceOptions{Workers: 2, By: BalanceByArcs})
	if err := Verify(g, bal.Colors); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 40; i++ {
		if bal.Colors[i] != base.Colors[i] {
			t.Fatalf("isolated vertex %d moved %d -> %d", i, base.Colors[i], bal.Colors[i])
		}
	}
}

func TestComputeStatsOnArcFields(t *testing.T) {
	// path(4): 2-coloring {0,2} / {1,3}; arc counts 1+2=3 per set.
	g := path(4)
	st := Greedy(g).ComputeStatsOn(g)
	if st.NumColors != 2 || st.MinArcs != 3 || st.MaxArcs != 3 || st.ArcRSD != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.AvgArcs != 3 {
		t.Fatalf("AvgArcs = %v, want 3", st.AvgArcs)
	}
	if s := st.String(); s == "" {
		t.Fatal("empty string")
	}
	empty := Greedy(graph.NewBuilder(0).Build(1))
	if est := empty.ComputeStatsOn(graph.NewBuilder(0).Build(1)); est.MaxArcs != 0 {
		t.Fatalf("empty stats: %+v", est)
	}
}
