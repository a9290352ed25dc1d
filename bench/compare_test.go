package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := boundSpec{Name: "latency", Better: "lower", Bound: 0.10}
	higher := boundSpec{Name: "rps", Better: "higher", Bound: 0.10}
	ramp := func(base, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + step*float64(i%5)
		}
		return out
	}
	cases := []struct {
		name           string
		parent, change []float64
		b              boundSpec
		want           string
	}{
		{"same", ramp(100, 1), ramp(100, 1), lower, "unchanged"},
		{"slower within bound", ramp(100, 1), ramp(105, 1), lower, "unchanged"},
		{"slower past bound", ramp(100, 1), ramp(115, 1), lower, "regressed"},
		{"fewer rps past bound", ramp(100, 1), ramp(85, 1), higher, "regressed"},
		{"faster, every pair", ramp(100, 1), ramp(90, 1), lower, "improved"},
		{"more rps, every pair", ramp(100, 1), ramp(110, 1), higher, "improved"},
		{"noisy", ramp(100, 10), ramp(100, 10), lower, "unresolved"},
		{"noisy but every run better", ramp(200, 10), ramp(100, 10), lower, "improved"},
		{"faster by less than the spread", ramp(100, 2), ramp(99, 2), lower, "unchanged"},
	}
	for _, c := range cases {
		if got := judge(c.parent, c.change, c.b).label; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// writeRuns saves synthetic runs of one workload as dir/<workload>/runNN.
func writeRuns(t *testing.T, dir, workload string, latencies []float64, failed int) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, workload), 0o755); err != nil {
		t.Fatal(err)
	}
	for i, l := range latencies {
		rep := report{Correct: true, Attempted: 100, Failed: failed, Metrics: map[string]metric{
			"latency_p50_ms": {Value: l, Unit: "ms"},
			"throughput_rps": {Value: 1000 / l, Unit: "1/s"},
		}}
		line, _ := json.Marshal(rep)
		body := fmt.Sprintf("# human-readable lines come first\n%s\n", line)
		if err := os.WriteFile(filepath.Join(dir, workload, fmt.Sprintf("run%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	bounds := filepath.Join(dir, "BENCHMARK.json")
	spec := `{"end_to_end": [
		{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "throughput_rps", "unit": "1/s", "better": "higher", "bound": 0.1}]}`
	if err := os.WriteFile(bounds, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	steady := []float64{10, 10.1, 10.2, 9.9, 10, 10.1, 9.8, 10, 10.2, 9.9}
	slower := make([]float64, len(steady))
	for i, v := range steady {
		slower[i] = 1.3 * v
	}
	parent, same, worse, failing := filepath.Join(dir, "p"), filepath.Join(dir, "s"), filepath.Join(dir, "w"), filepath.Join(dir, "f")
	writeRuns(t, parent, "serve-cold", steady, 0)
	writeRuns(t, same, "serve-cold", steady, 0)
	writeRuns(t, worse, "serve-cold", slower, 0)
	writeRuns(t, failing, "serve-cold", steady, 3)

	var out strings.Builder
	ok, err := runCompare(bounds, parent, same, &out)
	if err != nil || !ok || strings.Contains(out.String(), "regressed") {
		t.Errorf("same runs: ok=%t err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err = runCompare(bounds, parent, worse, &out)
	if err != nil || ok || strings.Count(out.String(), "regressed") != 2 {
		t.Errorf("slower runs: ok=%t err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err = runCompare(bounds, parent, failing, &out)
	if err != nil || ok || !strings.Contains(out.String(), "failed_share") {
		t.Errorf("failing runs: ok=%t err=%v\n%s", ok, err, out.String())
	}
	if _, err := runCompare(bounds, parent, filepath.Join(dir, "missing"), &out); err == nil {
		t.Error("missing directory accepted")
	}
}
