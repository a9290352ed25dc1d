// Command bench is grappolo's end-to-end benchmark. It drives the library
// only through its public API (grappolo, grappolo/generate): the paper suite
// through a Detector, a sharded suite through Sharded, and hot and cold
// serving traffic through Guard → Cache → Pool. A run prints every metric
// by name and unit, checks every output, and ends with one JSON line:
//
//	bash bench/run.sh -workload suite-colored -seed 1 -seconds 10 -trace 0
//
// -trace 1 adds a traced pass that attributes time to the layers and
// reports the per-layer metrics instead of the end-to-end ones. -compare
// diffs two directories of saved runs against the bounds in BENCHMARK.json.
// See README.md for the workloads and the metric-to-layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"grappolo/generate"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits and layerUnits are the metrics of the final line, with
// their units; BENCHMARK.json lists the same names (a test keeps them in
// step). Every workload reports all of them: a metric is only listed here
// if every workload measures it. Layer metrics that only some workloads
// exercise are printed and written to the trace file, not to the final line.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"suite_s":          "s",
	"graph_geomean_ms": "ms",
	"throughput_rps":   "1/s",
	"latency_p50_ms":   "ms",
	"latency_p99_ms":   "ms",
	"modularity_mean":  "Q",
	"peak_rss_mb":      "MB",
}

var layerUnits = map[string]string{
	"engine.clustering_s":          "s",
	"engine.rebuild_s":             "s",
	"engine.unattributed_s":        "s",
	"engine.iterations":            "count",
	"engine.ns_per_vertex_visit":   "ns",
	"engine.self_speedup":          "x",
	"seq.serial_s":                 "s",
	"seq.speedup":                  "x",
	"graph.build_s":                "s",
	"graph.stronghash_ms":          "ms",
	"cache.hit_ratio":              "share",
	"cache.delta_routed_share":     "share",
	"cache.evictions_per_request":  "count",
	"pool.engine_runs_per_request": "count",
	"host.load_ns":                 "ns/load",
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // length of the timed window
	trace    bool
	traceOut string // file for spans and layer metrics; "" keeps them in memory
	// small runs every workload at generate.Small scale (the smoke test).
	small bool
}

// suiteScale and serveScale are the input scales of the offline and the
// serving workloads.
func (c config) suiteScale() generate.Scale {
	if c.small {
		return generate.Small
	}
	return generate.Large
}

func (c config) serveScale() generate.Scale {
	if c.small {
		return generate.Small
	}
	return generate.Medium
}

// chaseEntries is the size of the host clock's chase: 64 MiB, as large as
// the working set of a Large detection.
func (c config) chaseEntries() int {
	if c.small {
		return 1 << 16
	}
	return 16 << 20
}

// setupReps is how many times a run sets up; setup_s is the median. A traced
// run reports no setup_s and sets up once.
func (c config) setupReps() int {
	if c.trace {
		return 1
	}
	return 5
}

// run carries one workload run's state: its results, checks and trace.
type run struct {
	cfg   config
	nproc int
	ctx   context.Context
	out   io.Writer // human-readable lines

	chk       checker
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
	absent    map[string]string // layer metric -> why it was not measured
	tr        *tracer
	setups    []float64
	host      *hostClock
}

func newRun(cfg config, out io.Writer) (*run, error) {
	host, err := newHostClock(cfg.chaseEntries(), runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	r := &run{
		cfg:    cfg,
		nproc:  runtime.NumCPU(),
		ctx:    context.Background(),
		out:    out,
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		absent: map[string]string{},
		host:   host,
	}
	if cfg.trace {
		r.tr = newTracer(cfg.workload)
	}
	return r, nil
}

func (r *run) logf(format string, args ...any) { fmt.Fprintf(r.out, format+"\n", args...) }

// setup builds the workload's graphs and tiers the configured number of
// times and records each build's wall time for setup_s. Before each build
// it releases the previous one and collects its garbage, untimed, so that
// only one set-up is ever live.
func (r *run) setup(release func(), build func() error) error {
	for i := 0; i < r.cfg.setupReps(); i++ {
		release()
		runtime.GC()
		t := time.Now()
		if err := build(); err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(t).Seconds())
		r.host.sample()
	}
	return nil
}

// setLayer records a per-layer metric; absentLayer records why one is
// missing on this workload.
func (r *run) setLayer(name string, v float64) { r.layer[name] = v }
func (r *run) absentLayer(name, reason string) { r.absent[name] = reason }
func (r *run) count(attempted, failed int)     { r.attempted += attempted; r.failed += failed }
func (r *run) setE2E(name string, v float64)   { r.e2e[name] = v }
func (r *run) window() time.Duration           { return time.Duration(r.cfg.seconds * float64(time.Second)) }
func (r *run) timedOut(start time.Time, n int) bool {
	return n >= minRounds && time.Since(start) >= r.window()
}

// minRounds is the fewest rounds a timed window runs, however long they
// take, so that a per-round median always has a middle value.
const minRounds = 3

// workload is one benchmark workload. scaled says whether its times are
// scaled by the host clock (see hostClock). The offline workloads' Large
// graphs are about as large as the chase, and their times track it; the
// serving workloads' Medium graphs do not (scaling doubled serve-cold's
// spread between runs), so their times are reported as measured.
type workload struct {
	run    func(*run) error
	scaled bool
}

// workloads maps each workload name to how it runs.
var workloads = map[string]workload{
	"suite-colored":  {runSuiteColored, true},
	"suite-baseline": {runSuiteBaseline, true},
	"shard-suite":    {runShardSuite, true},
	"serve-hot":      {runServeHot, false},
	"serve-cold":     {runServeCold, false},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs one workload and returns its final report.
func execute(cfg config, out io.Writer) (report, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q (known: %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	r, err := newRun(cfg, out)
	if err != nil {
		return report{}, err
	}
	defer r.host.close()
	r.logf("# bench workload=%s seed=%d seconds=%g trace=%t nproc=%d", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, r.nproc)
	if err := wl.run(r); err != nil {
		return report{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if !cfg.trace {
		r.setE2E("setup_s", median(r.setups))
	}
	r.setLayer("host.load_ns", r.host.loadNS())
	f := 1.0
	if wl.scaled {
		f = r.host.factor()
	}
	r.logf("host clock: %d samples, median %.1f ns per load; times are scaled by %.4f", len(r.host.samples), r.host.loadNS(), f)
	rep := report{Correct: r.chk.ok(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	units := endToEndUnits
	values := r.e2e
	if cfg.trace {
		units, values = layerUnits, r.layer
		for _, all := range []map[string]string{layerUnits, extraLayerUnits} {
			for name := range all {
				if _, ok := r.layer[name]; !ok && r.absent[name] == "" {
					r.absentLayer(name, "not measured on this workload")
				}
			}
		}
	}
	for _, name := range sortedKeys(units) {
		v, ok := values[name]
		if !ok {
			if cfg.trace {
				continue // listed as absent, with its reason
			}
			return report{}, fmt.Errorf("%s: metric %s was not measured", cfg.workload, name)
		}
		rep.Metrics[name] = metric{Value: scaleTime(v, units[name], f), Unit: units[name]}
	}
	r.printMetrics(values, units, f)
	r.chk.print(out)
	if cfg.trace {
		if err := r.tr.finish(r, cfg.traceOut, f); err != nil {
			return report{}, err
		}
	}
	return rep, nil
}

// layerUnit is the unit of any per-layer metric.
func layerUnit(name string) string {
	if u, ok := layerUnits[name]; ok {
		return u
	}
	return extraLayerUnits[name]
}

// printMetrics prints the final-line metrics, then (traced runs) every
// other per-layer metric and the ones absent on this workload: each scaled
// by the host factor f, and as measured.
func (r *run) printMetrics(values map[string]float64, units map[string]string, f float64) {
	line := func(name string, v float64, unit string) {
		r.logf("%-30s %16.6g %-7s (measured %.6g)", name, scaleTime(v, unit, f), unit, v)
	}
	for _, name := range sortedKeys(units) {
		if v, ok := values[name]; ok {
			line(name, v, units[name])
		}
	}
	if !r.cfg.trace {
		return
	}
	for _, name := range sortedKeys(r.layer) {
		if _, final := units[name]; !final {
			line(name, r.layer[name], layerUnit(name))
		}
	}
	for _, name := range sortedKeys(r.absent) {
		r.logf("%-30s %16s (%s)", name, "absent", r.absent[name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write spans and layer metrics to this JSON file")
	compare := fs.Bool("compare", false, "compare two run directories, -compare <parent-dir> <change-dir>, against the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare <parent-dir> <change-dir>")
			return 2
		}
		ok, err := runCompare("", fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *traceFlag < 0 || *traceFlag > 1 || cfg.seconds <= 0 {
		fs.Usage()
		return 2
	}
	cfg.trace = *traceFlag == 1
	rep, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}
