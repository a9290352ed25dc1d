// Command benchjson runs the repo's performance-critical benchmarks and
// emits a machine-readable JSON report (BENCH_N.json at the repo root by
// convention), so every PR can prove a kernel win or catch a regression with
// numbers instead of prose. It shells out to `go test -bench` — the
// benchmarks themselves live next to the code they measure — and parses the
// standard benchmark output lines into structured results.
//
// Usage:
//
//	benchjson -out BENCH_8.json                  # default suite, medium scale
//	benchjson -benchtime 1x -out /tmp/smoke.json # CI smoke
//	benchjson -dir /tmp/baseline-tree -out /tmp/before.json
//	benchjson -baseline /tmp/before.json -out BENCH_8.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// suite names one `go test -bench` invocation: a package, the benchmark
// regexp to run in it, and its default -benchtime (kernel benchmarks need
// many iterations to beat scheduler noise on small CI boxes; the serving-tier
// benchmarks run whole detections per op and would take minutes at the same
// count).
type suite struct {
	Pkg       string `json:"package"`
	Bench     string `json:"bench"`
	Benchtime string `json:"benchtime"`
}

// defaultSuites cover the sweep/rebuild kernels (the paper's Fig. 8 hot
// path), one whole uncolored phase (sweeps plus scoring), and the serving
// tiers that funnel into them.
var defaultSuites = []suite{
	{Pkg: "./internal/core", Bench: "^(BenchmarkDecideSweep|BenchmarkSweepUncolored|BenchmarkPhaseUncolored|BenchmarkSweepColored|BenchmarkSweepAsyncPLM|BenchmarkRebuildParallel)$", Benchtime: "30x"},
	{Pkg: ".", Bench: "^(BenchmarkPoolDetect|BenchmarkShardedDetect|BenchmarkCacheDetect)$", Benchtime: "3x"},
}

// result is one parsed benchmark line.
type result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// suiteResult groups the results of one package invocation.
type suiteResult struct {
	Pkg       string   `json:"package"`
	Bench     string   `json:"bench"`
	Benchtime string   `json:"benchtime"`
	Results   []result `json:"results"`
}

// report is the emitted JSON document.
type report struct {
	Schema    string          `json:"schema"`
	GoVersion string          `json:"go"`
	GOOS      string          `json:"goos"`
	GOARCH    string          `json:"goarch"`
	CPUs      int             `json:"cpus"`
	Scale     string          `json:"scale"`
	Note      string          `json:"note,omitempty"`
	Suites    []suiteResult   `json:"suites"`
	Baseline  json.RawMessage `json:"baseline,omitempty"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	var (
		out       = fs.String("out", "BENCH_8.json", "output JSON path")
		benchtime = fs.String("benchtime", "", "override every suite's -benchtime (e.g. 1x for a CI smoke)")
		count     = fs.Int("count", 1, "passed to go test -count")
		scale     = fs.String("scale", "medium", "GRAPPOLO_BENCH_SCALE for the benchmark processes (small|medium|large)")
		dir       = fs.String("dir", "", "working tree to benchmark (default: current directory); use a checkout of an older commit to produce baseline numbers")
		baseline  = fs.String("baseline", "", "previously emitted benchjson report to embed verbatim as .baseline (the before numbers)")
		pkg       = fs.String("pkg", "", "override: run only this package ...")
		bench     = fs.String("bench", "", "override: benchmark regexp for -pkg")
		note      = fs.String("note", "", "free-form annotation recorded in the report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	suites := defaultSuites
	if *pkg != "" {
		re := *bench
		if re == "" {
			re = "."
		}
		suites = []suite{{Pkg: *pkg, Bench: re, Benchtime: "3x"}}
	} else if *bench != "" {
		return fmt.Errorf("-bench requires -pkg")
	}
	for i := range suites {
		if *benchtime != "" {
			suites[i].Benchtime = *benchtime
		}
	}

	rep := report{
		Schema:    "grappolo-bench/v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Scale:     *scale,
		Note:      *note,
	}
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			return err
		}
		if !json.Valid(raw) {
			return fmt.Errorf("baseline %s is not valid JSON", *baseline)
		}
		rep.Baseline = json.RawMessage(raw)
	}

	for _, s := range suites {
		cmd := exec.Command("go", "test", "-run=NONE",
			"-bench="+s.Bench, "-benchtime="+s.Benchtime,
			"-count="+strconv.Itoa(*count), s.Pkg)
		cmd.Dir = *dir
		cmd.Env = append(os.Environ(), "GRAPPOLO_BENCH_SCALE="+*scale)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		fmt.Fprintf(os.Stderr, "benchjson: go test -bench=%s %s\n", s.Bench, s.Pkg)
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", s.Pkg, err)
		}
		os.Stderr.Write(buf.Bytes())
		rs, err := parseBench(buf.String())
		if err != nil {
			return fmt.Errorf("%s: %w", s.Pkg, err)
		}
		rep.Suites = append(rep.Suites, suiteResult{Pkg: s.Pkg, Bench: s.Bench, Benchtime: s.Benchtime, Results: rs})
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(enc, '\n'), 0o644)
}

// parseBench extracts the benchmark result lines from go test output. A line
// looks like
//
//	BenchmarkDecideSweep-4   5   3021456 ns/op   262144 vertices
//
// name, iteration count, then (value, unit) pairs; ns/op becomes the primary
// field, every other unit lands in Metrics.
func parseBench(out string) ([]result, error) {
	var rs []result
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue // "Benchmark..." prose, not a result line
		}
		r := result{Name: f[0], Iters: iters}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", f[i], line)
			}
			if f[i+1] == "ns/op" {
				r.NsPerOp = v
				continue
			}
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[f[i+1]] = v
		}
		rs = append(rs, r)
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("no benchmark result lines in output")
	}
	return rs, nil
}
