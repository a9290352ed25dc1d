package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	if got := quantile([]float64{3, 1, 2}, 0.5); math.Abs(got-2) > 1e-12 {
		t.Errorf("median of 1,2,3 = %v, want 2", got)
	}
	if got := quantile([]float64{5, 5, 5, 5}, 0.99); math.Abs(got-5) > 1e-12 {
		t.Errorf("quantile of a constant = %v, want 5", got)
	}
	xs := make([]float64, 10001)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got, want := quantile(xs, q), q*10000; math.Abs(got-want) > 2 {
			t.Errorf("quantile(0..10000, %v) = %v, want about %v", q, got, want)
		}
	}
	// Swapping which sample is the middle one barely moves the estimate.
	a := quantile([]float64{1, 2, 10, 11, 20}, 0.5)
	b := quantile([]float64{1, 2, 11, 11.5, 20}, 0.5)
	if math.Abs(a-b) > 1 {
		t.Errorf("median estimate jumped from %v to %v", a, b)
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 || median(nil) != 0 {
		t.Error("plain median wrong")
	}
}

// TestHostScaling checks that the host factor scales times and rates and
// leaves every other unit alone, and that the chase visits one cycle.
func TestHostScaling(t *testing.T) {
	h, err := newHostClock(1<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	x, seen := uint32(0), 0
	for {
		x, seen = h.ring[x], seen+1
		if x == 0 {
			break
		}
	}
	if seen != len(h.ring) {
		t.Errorf("chase cycle has %d entries, want %d", seen, len(h.ring))
	}
	h.sample()
	if f := h.factor(); !(f > 0) || math.IsInf(f, 1) {
		t.Errorf("host factor %v", f)
	}
	for unit, want := range map[string]float64{"s": 5, "ms": 5, "us": 5, "ns": 5, "1/s": 20, "Q": 10, "MB": 10, "count": 10, "ns/load": 10} {
		if got := scaleTime(10, unit, 0.5); got != want {
			t.Errorf("scaleTime(10, %q, 0.5) = %v, want %v", unit, got, want)
		}
	}
}
