//go:build !faultinject

package faults

import "testing"

// TestProbesAreInertWithoutTag pins the default-build contract: every
// probe is a no-op — no panic, no cancellation, no observable state — so
// the serving stack can call them unconditionally from hot paths.
func TestProbesAreInertWithoutTag(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled must be false without the faultinject build tag")
	}
	for p := Point(0); p < NumPoints; p++ {
		Maybe(p) // must not panic or sleep
		if ShouldCancel(p) {
			t.Fatalf("ShouldCancel(%s) fired in a no-op build", p)
		}
		if Hits(p) != 0 {
			t.Fatalf("Hits(%s) nonzero in a no-op build", p)
		}
	}
}

// TestPointNames keeps the diagnostic names attached to their sites.
func TestPointNames(t *testing.T) {
	for p, want := range map[Point]string{
		EngineRun:     "EngineRun",
		EngineBarrier: "EngineBarrier",
		PoolServe:     "PoolServe",
		CacheLead:     "CacheLead",
	} {
		if got := p.String(); got != want {
			t.Errorf("Point(%d).String() = %q, want %q", p, got, want)
		}
	}
}
