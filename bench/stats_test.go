package main

import (
	"context"
	"testing"

	"grappolo"
	"grappolo/generate"
)

// TestCountersReadTodaysStats reads the counters the benchmark relies on
// from today's Pool, Cache and Guard, and checks they move as requests do.
func TestCountersReadTodaysStats(t *testing.T) {
	st, err := newStack(2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pool.Led", "pool.Waited", "cache.Hits", "cache.Misses", "cache.DeltaRouted",
		"cache.Evictions", "guard.Shed", "guard.PoolStats.Led"} {
		if _, ok := st.stats()[name]; !ok {
			t.Errorf("counter %s missing from %v", name, st.stats())
		}
	}
	g := generate.MustGenerate(generate.CNR, generate.Small, 1, 1)
	before := st.stats()
	for i := 0; i < 3; i++ {
		if _, err := st.guard.Detect(context.Background(), g); err != nil {
			t.Fatal(err)
		}
	}
	after := st.stats()
	for name, want := range map[string]float64{"Hits": 2, "Misses": 1, "Led": 1, "Shed": 0} {
		if got, ok := delta(before, after, name); !ok || got != want {
			t.Errorf("delta %s = %v (found %t), want %v", name, got, ok, want)
		}
	}
	if got := outcomeOf(before, after); got != "hit" {
		t.Errorf("outcome %s, want hit", got)
	}
}

// nested mimics a stats snapshot tree: embedded, nested and map-valued
// counters, plus fields that are not counters.
type nested struct {
	grappolo.PoolStats
	Cache struct {
		Hits  int64
		Ratio float64
	}
	Tiers map[string]grappolo.PoolStats
	Name  string
	inner int64
}

type withStats struct{ s nested }

func (w withStats) Stats() nested { return w.s }

func TestCountersFlattenAnyShape(t *testing.T) {
	var w withStats
	w.s.Led, w.s.Cache.Hits, w.s.Cache.Ratio = 3, 5, 0.5
	w.s.Tiers = map[string]grappolo.PoolStats{"shard": {Waited: 7}}
	c := counters(w)
	for name, want := range map[string]float64{"PoolStats.Led": 3, "Cache.Hits": 5, "Cache.Ratio": 0.5, "Tiers.shard.Waited": 7} {
		if c[name] != want {
			t.Errorf("%s = %v, want %v (all: %v)", name, c[name], want, c)
		}
	}
	if v, ok := counter(c, "Hits"); !ok || v != 5 {
		t.Errorf("counter Hits = %v, %t", v, ok)
	}
	if v, ok := counter(c, "Led"); !ok || v != 3 {
		t.Errorf("counter Led = %v, %t; want the shortest path", v, ok)
	}
	if _, ok := counter(c, "Evictions"); ok {
		t.Error("a missing counter was found")
	}
	if len(counters(struct{}{})) != 0 || len(counters((*grappolo.Pool)(nil))) != 0 || len(counters(nil)) != 0 {
		t.Error("a value without usable Stats yields counters")
	}
}
