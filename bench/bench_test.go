package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics the
// program reports in step: same workloads, same metric names and units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	if len(b.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, program %d", len(b.EndToEnd), len(endToEndUnits))
	}
	for _, m := range b.EndToEnd {
		if endToEndUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, endToEndUnits[m.Name])
		}
	}
	if len(b.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, program %d", len(b.PerLayer), len(layerUnits))
	}
	for _, m := range b.PerLayer {
		if layerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, layerUnits[m.Name])
		}
	}
}

// TestWorkloadsSmoke runs every workload at Small scale, untraced and
// traced, and requires every check to pass and every metric of
// BENCHMARK.json to be reported with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 1, seconds: 0.01, trace: trace, small: true}
			if trace {
				cfg.traceOut = filepath.Join(t.TempDir(), "trace.json")
			}
			var out strings.Builder
			rep, err := execute(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed, out.String())
			}
			want := map[string]string{}
			if trace {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				if got, ok := rep.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.Name, trace, name, got, unit)
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			if trace {
				checkTraceFile(t, w.Name, cfg.traceOut)
			}
		}
	}
}

// checkTraceFile requires the trace file to hold spans and to account for
// every per-layer metric, measured or absent with a reason.
func checkTraceFile(t *testing.T, workload, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics map[string]metric `json:"metrics"`
		Absent  map[string]string `json:"absent"`
		Spans   []span            `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 {
		t.Errorf("%s: trace has no spans", workload)
	}
	for _, all := range []map[string]string{layerUnits, extraLayerUnits} {
		for name := range all {
			_, measured := doc.Metrics[name]
			if reason := doc.Absent[name]; measured == (reason != "") {
				t.Errorf("%s: layer metric %s: measured=%t, absent reason %q", workload, name, measured, reason)
			}
		}
	}
}

func TestMainFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-workload", "serve-cold", "-trace", "2"},
		{"-compare", "only-one-dir"},
	} {
		if code := mainErr(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("%v: exit 0, want nonzero", args)
		}
	}
}
