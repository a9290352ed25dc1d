package grappolo_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"grappolo"
	"grappolo/internal/generate"
)

// TestOptionLiveness fails when the engine ignores a detection option. The
// equivalence tables compare run against run, so an option dropped on both
// sides passes them. Each row runs one Small input at Workers(1) with and
// without the option and names the observable the option must change.
func TestOptionLiveness(t *testing.T) {
	// shape is the membership hash, iteration count and phase count.
	shape := func(res *grappolo.Result) string {
		return fmt.Sprintf("membership %016x, %d iterations, %d phases",
			membershipHash(res.Membership), res.TotalIterations, len(res.Phases))
	}
	// colored spells the phases' Colored flags, C colored and u not.
	colored := func(res *grappolo.Result) string {
		flags := make([]byte, len(res.Phases))
		for i, ph := range res.Phases {
			flags[i] = 'u'
			if ph.Colored {
				flags[i] = 'C'
			}
		}
		return string(flags)
	}
	levels := func(res *grappolo.Result) string { return fmt.Sprintf("%d levels", len(res.Levels)) }
	color := grappolo.Coloring(grappolo.Distance1)
	cases := []struct {
		option        string
		in            generate.Input
		without, with []grappolo.Option
		observe       func(*grappolo.Result) string
	}{
		// Compressing hanging chains leaves fewer vertices to move on a
		// road network.
		{"VFChains", generate.EuropeOSM,
			[]grappolo.Option{grappolo.VertexFollowing()},
			[]grappolo.Option{grappolo.VFChains()}, shape},
		// The paper's 1e-2 colored threshold ends coloring a phase sooner
		// than the 1e-3 default.
		{"Thresholds colored", generate.RGG,
			[]grappolo.Option{color},
			[]grappolo.Option{color, grappolo.Thresholds(1e-2, 0)}, colored},
		// A final threshold of 1e-3 stops the baseline's phases sooner
		// than the 1e-6 default.
		{"Thresholds final", generate.RGG,
			nil,
			[]grappolo.Option{grappolo.Thresholds(0, 1e-3)}, shape},
		// Only the first phase colors.
		{"FirstPhaseColoring", generate.RGG,
			[]grappolo.Option{color},
			[]grappolo.Option{color, grappolo.FirstPhaseColoring()}, colored},
		// Phases below 1024 vertices stop coloring.
		{"ColoringCutoff", generate.RGG,
			[]grappolo.Option{color},
			[]grappolo.Option{color, grappolo.ColoringCutoff(1024)}, colored},
		// Rebalanced color sets move vertices in another order.
		{"Balance arcs", generate.RGG,
			[]grappolo.Option{color},
			[]grappolo.Option{color, grappolo.Balance(grappolo.BalanceArcs)}, shape},
		// Each phase records one level of the dendrogram.
		{"KeepHierarchy", generate.RGG,
			nil,
			[]grappolo.Option{grappolo.KeepHierarchy()}, levels},
	}
	ctx := context.Background()
	for _, c := range cases {
		g := generate.MustGenerate(c.in, generate.Small, 0, 1)
		var got [2]string
		for k, opts := range [][]grappolo.Option{c.without, c.with} {
			res, err := grappolo.Detect(ctx, g, append(opts, grappolo.Workers(1))...)
			if err != nil {
				t.Fatalf("%s: %v", c.option, err)
			}
			got[k] = c.observe(res)
		}
		t.Logf("%s on %s: %s → %s", c.option, c.in, got[0], got[1])
		if got[0] == got[1] {
			t.Errorf("%s on %s changed nothing (%s): the option is ignored", c.option, c.in, got[0])
		}
	}
}

// TestServingOptionLiveness is TestOptionLiveness for the serving tiers:
// each row builds its tier with and without one option, drives the same
// requests through both, and names the Stats() counter or the Result or
// Stream observable the option must move.
func TestServingOptionLiveness(t *testing.T) {
	ctx := context.Background()
	ring := cliqueRing(t, 4, 5)
	pair := grappolo.FromEdges(10, cliquePairEdges(), 1)
	pairEdited := grappolo.FromEdges(10, append(cliquePairEdges(), grappolo.Edge{U: 0, V: 7, W: 1}), 1)
	cnr := generate.MustGenerate(generate.CNR, generate.Small, 0, 1)
	rgg := generate.MustGenerate(generate.RGG, generate.Small, 0, 1)

	// cached serves gs in order through a Cache over a one-engine Pool.
	cached := func(t *testing.T, copts []grappolo.CacheOption, gs ...*grappolo.Graph) grappolo.CacheStats {
		c, _ := newCachedPool(t, copts...)
		for _, g := range gs {
			if _, err := c.Detect(ctx, g); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats()
	}
	// guarded sends one request for ring through a Guard over a one-engine
	// Pool while one of the Guard's admission slots is held (see
	// requestBehindHold).
	guarded := func(t *testing.T, gopts []grappolo.GuardOption, release bool) grappolo.GuardStats {
		pool, err := grappolo.NewPool(1, grappolo.Workers(1))
		if err != nil {
			t.Fatal(err)
		}
		gd, err := grappolo.NewGuard(pool, gopts...)
		if err != nil {
			t.Fatal(err)
		}
		requestBehindHold(t, gd, ring, release)
		return gd.Stats()
	}
	// sharded detects cnr through a Sharded over a four-engine Pool; the
	// pool's size is the default shard count.
	sharded := func(t *testing.T, sopts []grappolo.ShardOption) (*grappolo.Result, grappolo.PoolStats) {
		s := newSharded(t, 4, sopts...)
		res, err := s.Detect(ctx, cnr)
		if err != nil {
			t.Fatal(err)
		}
		return res, s.Stats()
	}
	// streamed streams 64 fixed unit-weight edges onto rgg and flushes.
	streamed := func(t *testing.T, sopts []grappolo.StreamOption) *grappolo.Stream {
		s, err := grappolo.NewStream(rgg, []grappolo.Option{grappolo.Workers(1)}, sopts...)
		if err != nil {
			t.Fatal(err)
		}
		n := rgg.N()
		for i := 0; i < 64; i++ {
			if err := s.AddEdge(int32(i*41%n), int32((i*41+97)%n), 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		option, observable string
		// run reports the observable with the option (on) or without it.
		run func(t *testing.T, on bool) string
	}{
		// An entry past its TTL is dropped at the repeat's lookup.
		{"CacheTTL(1ns)", "CacheStats.Expired", func(t *testing.T, on bool) string {
			return fmt.Sprint(cached(t, when(on, grappolo.CacheTTL(time.Nanosecond)), ring, ring).Expired)
		}},
		// A budget below any entry's size retains nothing to hit.
		{"CacheBytes(1)", "CacheStats.Hits", func(t *testing.T, on bool) string {
			return fmt.Sprint(cached(t, when(on, grappolo.CacheBytes(1)), ring, ring).Hits)
		}},
		// A one-edge insertion routes onto the cached maintainer.
		{"DeltaEdits(8)", "CacheStats.DeltaRouted", func(t *testing.T, on bool) string {
			return fmt.Sprint(cached(t, when(on, grappolo.DeltaEdits(8)), pair, pairEdited).DeltaRouted)
		}},
		// Depth 0 sheds the request instead of queueing it.
		{"MaxQueueDepth(0)", "GuardStats.Shed", func(t *testing.T, on bool) string {
			return fmt.Sprint(guarded(t, when(on, grappolo.MaxQueueDepth(0)), false).Shed)
		}},
		// The default budget expires inside the engine run.
		{"DetectDeadline(1ns)", "GuardStats.Canceled", func(t *testing.T, on bool) string {
			return fmt.Sprint(guarded(t, when(on, grappolo.DetectDeadline(time.Nanosecond)), true).Canceled)
		}},
		// A request queued at depth 1 is served by the degraded engines.
		{"DegradeAtDepth(1)", "GuardStats.Degraded", func(t *testing.T, on bool) string {
			return fmt.Sprint(guarded(t, when(on, grappolo.DegradeAtDepth(1)), true).Degraded)
		}},
		// A second slot admits the request beside the held one; without
		// it the request queues and is canceled before any engine runs.
		{"MaxInFlight(2)", "GuardStats.Led", func(t *testing.T, on bool) string {
			return fmt.Sprint(guarded(t, when(on, grappolo.MaxInFlight(2)), false).Led)
		}},
		// Each shard sweep checks out an engine: two shards take fewer
		// than the pool size's four.
		{"WithShards(2)", "PoolStats.Led", func(t *testing.T, on bool) string {
			_, st := sharded(t, when(on, grappolo.WithShards(2)))
			return fmt.Sprint(st.Led)
		}},
		// No exchange leaves one local round per shard.
		{"WithExchangeRounds(0)", "PoolStats.Led", func(t *testing.T, on bool) string {
			_, st := sharded(t, when(on, grappolo.WithExchangeRounds(0)))
			return fmt.Sprint(st.Led)
		}},
		// Arc-balanced ranges cut cnr's hub-heavy ids elsewhere than
		// even vertex counts do.
		{"WithPartition(PartitionArcs)", "Result membership hash and TotalIterations", func(t *testing.T, on bool) string {
			res, _ := sharded(t, when(on, grappolo.WithPartition(grappolo.PartitionArcs)))
			return fmt.Sprintf("membership %016x, %d iterations", membershipHash(res.Membership), res.TotalIterations)
		}},
		// Batches of 8 apply as the edges arrive; the default 1024 holds
		// all 64 for the flush.
		{"BatchSize(8)", "Stream.BatchApplies", func(t *testing.T, on bool) string {
			return fmt.Sprint(streamed(t, when(on, grappolo.BatchSize(8))).BatchApplies())
		}},
		// 64 edges touch more than 1% of rgg's vertices, and fewer than
		// the default quarter.
		{"RefreshFraction(0.01)", "Stream.FullRuns", func(t *testing.T, on bool) string {
			return fmt.Sprint(streamed(t, when(on, grappolo.RefreshFraction(0.01))).FullRuns())
		}},
	}
	for _, c := range cases {
		without, with := c.run(t, false), c.run(t, true)
		t.Logf("%s: %s %s → %s", c.option, c.observable, without, with)
		if without == with {
			t.Errorf("%s left %s at %s: the option is ignored", c.option, c.observable, without)
		}
	}
}

// when returns opts if on is set, and none otherwise.
func when[T any](on bool, opts ...T) []T {
	if on {
		return opts
	}
	return nil
}

// membershipHash is the FNV-1a hash of a membership's bytes.
func membershipHash(membership []int32) uint64 {
	h := fnv.New64a()
	// Writing a fixed-size slice to a hash cannot fail.
	_ = binary.Write(h, binary.LittleEndian, membership)
	return h.Sum64()
}

// requestBehindHold holds one of gd's admission slots and sends one
// request for g. A request the Guard sheds or admits at once returns by
// itself; one it queues is let through by releasing the slot when release
// is set, and canceled otherwise. It returns once the request has.
func requestBehindHold(t *testing.T, gd *grappolo.Guard, g *grappolo.Graph, release bool) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := gd.HoldAdmission(ctx); err != nil {
		t.Fatal(err)
	}
	held := true
	defer func() {
		if held {
			gd.ReleaseAdmission()
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The caller reads the outcome from the Guard's counters.
		_, _ = gd.Detect(ctx, g)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case <-done:
			return
		default:
		}
		if gd.Queued() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request neither returned nor queued within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	if release {
		held = false
		gd.ReleaseAdmission()
	} else {
		cancel()
	}
	<-done
}
