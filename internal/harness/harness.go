// Package harness runs the paper's experiments end to end: it generates the
// input suite, executes the serial reference and the three parallel variants
// (baseline, baseline+VF, baseline+VF+Color), collects convergence
// trajectories, runtimes, timing breakdowns and quality metrics, and formats
// them as the tables and figures of the evaluation section (§6).
//
// Every table and figure of the paper maps to one function here.
// cmd/benchtables and the root benchmark file are thin wrappers over this
// package.
package harness

import (
	"fmt"
	"io"
	"time"

	"grappolo/internal/core"
	"grappolo/internal/generate"
	"grappolo/internal/graph"
	"grappolo/internal/quality"
	"grappolo/internal/seq"
)

// Scheme names a configuration compared in the paper.
type Scheme string

const (
	// Serial is the serial Louvain reference [10].
	Serial Scheme = "serial"
	// Baseline is the parallel implementation with only the minimum-label
	// heuristic.
	Baseline Scheme = "baseline"
	// BaselineVF adds vertex-following preprocessing.
	BaselineVF Scheme = "baseline+vf"
	// BaselineVFColor adds coloring — the headline configuration.
	BaselineVFColor Scheme = "baseline+vf+color"
	// PLMScheme emulates the label-propagation parallel Louvain of Staudt &
	// Meyerhenke (paper ref. [26]) for the §7 related-work comparison:
	// asynchronous live-state moves, no coloring, no minimum-label rule.
	PLMScheme Scheme = "plm"
)

// AllSchemes lists serial plus the parallel variants.
func AllSchemes() []Scheme {
	return []Scheme{Serial, Baseline, BaselineVF, BaselineVFColor}
}

// RunStats is the scheme-independent summary of one run.
type RunStats struct {
	Scheme     Scheme
	Modularity float64
	Runtime    time.Duration
	Iterations int
	Phases     int
	Membership []int32
	// Trajectory is the concatenated per-iteration modularity across phases
	// (the X axis of the Figs. 3–6 convergence plots).
	Trajectory []float64
	// Breakdown is populated for parallel schemes (Fig. 8).
	Breakdown core.Breakdown
}

// Options configure harness runs.
type Options struct {
	Scale   generate.Scale
	Workers int
	Seed    uint64
	// ColoringCutoff and ColoredThreshold set the coloring vertex cutoff
	// and the colored-phase threshold (Table 5 varies the latter). Defaults
	// pins the paper's §6.1 policy, scaled to the suite.
	ColoringCutoff   int
	ColoredThreshold float64
}

// coreOptions translates harness options into core options for a scheme.
func (o Options) coreOptions(s Scheme) core.Options {
	var c core.Options
	switch s {
	case Baseline:
		c = core.Baseline(o.Workers)
	case BaselineVF:
		c = core.BaselineVF(o.Workers)
	case BaselineVFColor:
		c = core.BaselineVFColor(o.Workers)
	case PLMScheme:
		c = core.PLM(o.Workers)
	default:
		panic(fmt.Sprintf("harness: %q is not a parallel scheme", s))
	}
	if o.ColoringCutoff > 0 {
		c.ColoringVertexCutoff = o.ColoringCutoff
	}
	if o.ColoredThreshold > 0 {
		c.ColoredThreshold = o.ColoredThreshold
	}
	return c
}

// Defaults fills in the harness defaults: Small scale, 4 workers, and the
// paper's §6.1 coloring policy with its vertex cutoff scaled for synthetic
// inputs.
func (o Options) Defaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.ColoringCutoff <= 0 {
		o.ColoringCutoff = 64 // color any phase with >= 64 vertices
	}
	if o.ColoredThreshold <= 0 {
		o.ColoredThreshold = 1e-2
	}
	return o
}

// Input generates (and caches per call) the named input at the configured
// scale.
func (o Options) Input(in generate.Input) (*graph.Graph, error) {
	return generate.Generate(in, o.Scale, o.Seed, o.Workers)
}

// RunScheme executes one scheme on g and returns its stats.
func RunScheme(g *graph.Graph, s Scheme, o Options) RunStats {
	o = o.Defaults()
	start := time.Now()
	switch s {
	case Serial:
		res := seq.Run(g, seq.Options{})
		rs := RunStats{
			Scheme:     s,
			Modularity: res.Modularity,
			Runtime:    time.Since(start),
			Iterations: res.TotalIterations,
			Phases:     len(res.Phases),
			Membership: res.Membership,
		}
		for _, ph := range res.Phases {
			rs.Trajectory = append(rs.Trajectory, ph.Modularity...)
		}
		return rs
	default:
		res := core.Run(g, o.coreOptions(s))
		rs := RunStats{
			Scheme:     s,
			Modularity: res.Modularity,
			Runtime:    time.Since(start),
			Iterations: res.TotalIterations,
			Phases:     len(res.Phases),
			Membership: res.Membership,
			Breakdown:  res.Timing,
		}
		for _, ph := range res.Phases {
			rs.Trajectory = append(rs.Trajectory, ph.Modularity...)
		}
		return rs
	}
}

// Table1Row is one row of the input-statistics table.
type Table1Row struct {
	Input generate.Input
	Stats graph.Stats
}

// Table1 computes the suite's input statistics (paper Table 1).
func Table1(o Options) ([]Table1Row, error) {
	o = o.Defaults()
	rows := make([]Table1Row, 0, len(generate.Suite()))
	for _, in := range generate.Suite() {
		g, err := o.Input(in)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{Input: in, Stats: graph.ComputeStats(g)})
	}
	return rows, nil
}

// WriteTable1 renders Table 1.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1: input statistics (synthetic analogs)\n")
	fmt.Fprintf(w, "%-12s %12s %14s %8s %8s %8s\n", "input", "n", "M", "maxdeg", "avgdeg", "rsd")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %12d %14d %8d %8.3f %8.3f\n",
			r.Input, r.Stats.N, r.Stats.M, r.Stats.MaxDeg, r.Stats.AvgDeg, r.Stats.RSD)
	}
}

// Table2Row compares parallel (8 threads in the paper) against serial.
type Table2Row struct {
	Input            generate.Input
	ParallelQ        float64
	SerialQ          float64
	ParallelTime     time.Duration
	SerialTime       time.Duration
	Speedup          float64
	ParallelIterates int
}

// Table2 reproduces the serial-vs-parallel comparison (paper Table 2) for
// the given inputs using the baseline+VF+Color scheme.
func Table2(o Options, inputs []generate.Input) ([]Table2Row, error) {
	o = o.Defaults()
	var rows []Table2Row
	for _, in := range inputs {
		g, err := o.Input(in)
		if err != nil {
			return nil, err
		}
		par := RunScheme(g, BaselineVFColor, o)
		ser := RunScheme(g, Serial, o)
		row := Table2Row{
			Input:            in,
			ParallelQ:        par.Modularity,
			SerialQ:          ser.Modularity,
			ParallelTime:     par.Runtime,
			SerialTime:       ser.Runtime,
			ParallelIterates: par.Iterations,
		}
		if par.Runtime > 0 {
			row.Speedup = float64(ser.Runtime) / float64(par.Runtime)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteTable2 renders Table 2.
func WriteTable2(w io.Writer, rows []Table2Row, workers int) {
	fmt.Fprintf(w, "Table 2: parallel (baseline+VF+Color, %d workers) vs serial Louvain\n", workers)
	fmt.Fprintf(w, "%-12s %12s %12s %14s %14s %9s\n",
		"input", "parallel Q", "serial Q", "parallel t", "serial t", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %12.6f %12.6f %14s %14s %8.2fx\n",
			r.Input, r.ParallelQ, r.SerialQ, r.ParallelTime.Round(time.Microsecond),
			r.SerialTime.Round(time.Microsecond), r.Speedup)
	}
}

// Table3Row holds the qualitative comparison of §6.2.3.
type Table3Row struct {
	Input    generate.Input
	Measures quality.Measures
}

// Table3 compares the parallel output's composition against the serial
// output (paper Table 3; the paper evaluates CNR and MG1).
func Table3(o Options, inputs []generate.Input) ([]Table3Row, error) {
	o = o.Defaults()
	var rows []Table3Row
	for _, in := range inputs {
		g, err := o.Input(in)
		if err != nil {
			return nil, err
		}
		ser := RunScheme(g, Serial, o)
		par := RunScheme(g, BaselineVFColor, o)
		pc, err := quality.ComparePartitions(ser.Membership, par.Membership)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{Input: in, Measures: pc.Derive()})
	}
	return rows, nil
}

// WriteTable3 renders Table 3.
func WriteTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "Table 3: parallel vs serial community composition\n")
	fmt.Fprintf(w, "%-12s %8s %8s %8s %10s\n", "input", "SP%", "SE%", "OQ%", "Rand%")
	for _, r := range rows {
		m := r.Measures
		fmt.Fprintf(w, "%-12s %8.2f %8.2f %8.2f %10.2f\n",
			r.Input, 100*m.Specificity, 100*m.Sensitivity, 100*m.OverlapQ, 100*m.RandIndex)
	}
}

// Table4Row compares first-phase-only against multi-phase coloring.
type Table4Row struct {
	Input      generate.Input
	FirstQMin  float64
	FirstQMax  float64
	FirstTime  time.Duration
	FirstIters int
	MultiQMin  float64
	MultiQMax  float64
	MultiTime  time.Duration
	MultiIters int
}

// Table4 reproduces the multi-phase-coloring study (paper Table 4, 2
// threads, repeated runs reported as [min, max] modularity).
func Table4(o Options, inputs []generate.Input, repeats int) ([]Table4Row, error) {
	o = o.Defaults()
	if repeats < 1 {
		repeats = 1
	}
	var rows []Table4Row
	for _, in := range inputs {
		g, err := o.Input(in)
		if err != nil {
			return nil, err
		}
		row := Table4Row{Input: in}
		first := o.coreOptions(BaselineVFColor)
		first.Coloring = core.ColorFirstPhase
		multi := o.coreOptions(BaselineVFColor)
		row.FirstQMin, row.FirstQMax, row.FirstTime, row.FirstIters = repeatRuns(g, first, repeats)
		row.MultiQMin, row.MultiQMax, row.MultiTime, row.MultiIters = repeatRuns(g, multi, repeats)
		rows = append(rows, row)
	}
	return rows, nil
}

func repeatRuns(g *graph.Graph, opts core.Options, repeats int) (qmin, qmax float64, total time.Duration, iters int) {
	qmin, qmax = 2, -2
	// One pooled engine across the repeats: exactly the repeated-run
	// workload Engine exists for, and the recycled result keeps the
	// [min, max] sweeps allocation-free after the first run.
	eng := core.NewEngine(opts)
	var res *core.Result
	for r := 0; r < repeats; r++ {
		start := time.Now()
		res = eng.RunInto(g, res)
		total += time.Since(start)
		if res.Modularity < qmin {
			qmin = res.Modularity
		}
		if res.Modularity > qmax {
			qmax = res.Modularity
		}
		iters = res.TotalIterations
	}
	total /= time.Duration(repeats)
	return qmin, qmax, total, iters
}

// WriteTable4 renders Table 4.
func WriteTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "Table 4: first-phase vs multi-phase coloring\n")
	fmt.Fprintf(w, "%-12s | %-28s | %-28s\n", "input", "first-phase coloring", "multi-phase coloring")
	fmt.Fprintf(w, "%-12s | %18s %9s %4s | %18s %9s %4s\n",
		"", "[minQ,maxQ]", "time", "#it", "[minQ,maxQ]", "time", "#it")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s | [%.4f, %.4f] %9s %4d | [%.4f, %.4f] %9s %4d\n",
			r.Input,
			r.FirstQMin, r.FirstQMax, r.FirstTime.Round(time.Microsecond), r.FirstIters,
			r.MultiQMin, r.MultiQMax, r.MultiTime.Round(time.Microsecond), r.MultiIters)
	}
}

// Table5Row compares colored-phase thresholds.
type Table5Row struct {
	Input       generate.Input
	FineQMin    float64
	FineQMax    float64
	FineTime    time.Duration
	FineIters   int
	CoarseQMin  float64
	CoarseQMax  float64
	CoarseTime  time.Duration
	CoarseIters int
}

// Table5 reproduces the threshold study (paper Table 5): colored-phase
// modularity-gain threshold 1e-4 ("fine") vs 1e-2 ("coarse").
func Table5(o Options, inputs []generate.Input, repeats int) ([]Table5Row, error) {
	o = o.Defaults()
	if repeats < 1 {
		repeats = 1
	}
	var rows []Table5Row
	for _, in := range inputs {
		g, err := o.Input(in)
		if err != nil {
			return nil, err
		}
		fine := o.coreOptions(BaselineVFColor)
		fine.ColoredThreshold = 1e-4
		coarse := o.coreOptions(BaselineVFColor)
		coarse.ColoredThreshold = 1e-2
		row := Table5Row{Input: in}
		row.FineQMin, row.FineQMax, row.FineTime, row.FineIters = repeatRuns(g, fine, repeats)
		row.CoarseQMin, row.CoarseQMax, row.CoarseTime, row.CoarseIters = repeatRuns(g, coarse, repeats)
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteTable5 renders Table 5.
func WriteTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintf(w, "Table 5: colored-phase modularity-gain threshold 1e-4 vs 1e-2\n")
	fmt.Fprintf(w, "%-12s | %-28s | %-28s\n", "input", "threshold 1e-4", "threshold 1e-2")
	fmt.Fprintf(w, "%-12s | %18s %9s %4s | %18s %9s %4s\n",
		"", "[minQ,maxQ]", "time", "#it", "[minQ,maxQ]", "time", "#it")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s | [%.4f, %.4f] %9s %4d | [%.4f, %.4f] %9s %4d\n",
			r.Input,
			r.FineQMin, r.FineQMax, r.FineTime.Round(time.Microsecond), r.FineIters,
			r.CoarseQMin, r.CoarseQMax, r.CoarseTime.Round(time.Microsecond), r.CoarseIters)
	}
}
