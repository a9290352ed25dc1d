package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"grappolo"
)

// span is one timed call of a traced run. Engine step spans are built from
// the Result's Timing and Phases after the call returns: they carry
// durations only, and start where their parent starts. A span's self time
// is its duration minus the durations of its children.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"` // since the traced run started
	DurNs    int64  `json:"dur_ns"`
	Workload string `json:"workload"`
	Class    string `json:"class"`
	Outcome  string `json:"outcome"`
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// add records a span and returns its id.
func (t *tracer) add(parent int, name string, start time.Time, dur time.Duration, class, outcome string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), DurNs: dur.Nanoseconds(),
		Workload: t.workload, Class: class, Outcome: outcome,
	})
	return id
}

// engineSpans adds the engine's own step timings under parent: vertex
// following, then each phase with its coloring, clustering and rebuild.
func (t *tracer) engineSpans(parent int, start time.Time, class string, res *grappolo.Result) {
	if res.Timing.VF > 0 {
		t.add(parent, "engine.vf", start, res.Timing.VF, class, "")
	}
	for _, p := range res.Phases {
		ph := t.add(parent, "engine.phase", start, p.ColoringTime+p.ClusterTime+p.RebuildTime, class, "")
		if p.ColoringTime > 0 {
			t.add(ph, "engine.coloring", start, p.ColoringTime, class, "")
		}
		t.add(ph, "engine.clustering", start, p.ClusterTime, class, "")
		t.add(ph, "engine.rebuild", start, p.RebuildTime, class, "")
	}
}

// layerTotals sums count, duration and self time per span name.
type layerTotal struct {
	Count int     `json:"count"`
	DurS  float64 `json:"dur_s"`
	SelfS float64 `json:"self_s"`
}

func (t *tracer) layerTotals() map[string]layerTotal {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] += s.DurNs
		}
	}
	out := map[string]layerTotal{}
	for _, s := range t.spans {
		lt := out[s.Name]
		lt.Count++
		lt.DurS += float64(s.DurNs) / 1e9
		lt.SelfS += float64(s.DurNs-children[s.ID]) / 1e9
		out[s.Name] = lt
	}
	return out
}

// extraLayerUnits are the per-layer metrics only some workloads measure.
// Traced runs print them and write them to the trace file; on a workload
// that does not exercise the layer they are listed as absent with a reason.
var extraLayerUnits = map[string]string{
	"engine.vf_s":              "s",
	"engine.coloring_s":        "s",
	"engine.max_color_arc_rsd": "ratio",
	"cache.hit_us_p50":         "us",
	"cache.delta_ms_p50":       "ms",
	"cache.miss_overhead_ms":   "ms",
	"cache.delta_q_ratio_min":  "ratio",
	"pool.overhead_ms":         "ms",
	"pool.waited_share":        "share",
	"guard.overhead_us":        "us",
	"guard.shed_share":         "share",
	"shard.exchange_s":         "s",
	"shard.vs_shared_ratio":    "x",
	"shard.q_ratio_min":        "ratio",
	"trace.overhead_share":     "share",
}

// finish prints the layer totals and, when path is set, writes the spans,
// totals and every per-layer metric (absent ones with their reason) to it.
// Metrics are scaled by the host factor f; spans are as measured.
func (t *tracer) finish(r *run, path string, f float64) error {
	totals := t.layerTotals()
	for _, name := range sortedKeys(totals) {
		lt := totals[name]
		r.logf("span %-22s count %7d  dur %10.6fs  self %10.6fs", name, lt.Count, lt.DurS, lt.SelfS)
	}
	if path == "" {
		return nil
	}
	metrics := map[string]metric{}
	for name, v := range r.layer {
		unit := layerUnit(name)
		metrics[name] = metric{Value: scaleTime(v, unit, f), Unit: unit}
	}
	doc := struct {
		Workload   string                `json:"workload"`
		Seed       uint64                `json:"seed"`
		HostFactor float64               `json:"host_factor"`
		Metrics    map[string]metric     `json:"metrics"`
		Absent     map[string]string     `json:"absent"`
		Layers     map[string]layerTotal `json:"layers"`
		Spans      []span                `json:"spans"`
	}{t.workload, r.cfg.seed, f, metrics, r.absent, totals, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// engineRun is one detection whose engine step timings were observed: the
// wall time of the innermost public call around it, and what its Result
// reports (copied, since Results are recycled).
type engineRun struct {
	wall      time.Duration
	timing    grappolo.Breakdown
	iters     int
	visits    float64 // sum over phases of VertexCount × Iterations
	colored   bool
	maxArcRSD float64
}

func observeRun(wall time.Duration, res *grappolo.Result) engineRun {
	er := engineRun{wall: wall, timing: res.Timing, iters: res.TotalIterations}
	for _, p := range res.Phases {
		er.visits += float64(p.VertexCount) * float64(p.Iterations)
		if p.Colored {
			er.colored = true
			er.maxArcRSD = max(er.maxArcRSD, p.ColorArcRSD)
		}
	}
	return er
}

// engineMetrics sets the engine layer's metrics from the observed runs.
// vf and coloring say whether the configuration runs those steps at all.
func (r *run) engineMetrics(runs []engineRun, vf, coloring bool) {
	var b grappolo.Breakdown
	var unattributed time.Duration
	iters, visits, arcRSD, colored := 0, 0.0, 0.0, false
	for _, er := range runs {
		b.VF += er.timing.VF
		b.Coloring += er.timing.Coloring
		b.Clustering += er.timing.Clustering
		b.Rebuild += er.timing.Rebuild
		unattributed += er.wall - er.timing.Total()
		iters += er.iters
		visits += er.visits
		if er.colored {
			colored = true
			arcRSD = max(arcRSD, er.maxArcRSD)
		}
	}
	r.setLayer("engine.clustering_s", b.Clustering.Seconds())
	r.setLayer("engine.rebuild_s", b.Rebuild.Seconds())
	r.setLayer("engine.unattributed_s", unattributed.Seconds())
	r.setLayer("engine.iterations", float64(iters))
	if visits > 0 {
		r.setLayer("engine.ns_per_vertex_visit", float64(b.Clustering.Nanoseconds())/visits)
	}
	if vf {
		r.setLayer("engine.vf_s", b.VF.Seconds())
	} else {
		r.absentLayer("engine.vf_s", "configuration runs no vertex following")
	}
	if coloring {
		r.setLayer("engine.coloring_s", b.Coloring.Seconds())
	} else {
		r.absentLayer("engine.coloring_s", "configuration runs no coloring")
	}
	if colored {
		r.setLayer("engine.max_color_arc_rsd", arcRSD)
	} else {
		r.absentLayer("engine.max_color_arc_rsd", "no phase ran colored")
	}
}

// referencePasses times a Workers(1) Detector pass (engine options opts)
// and the serial reference over graphs, and sets engine.self_speedup,
// seq.serial_s and seq.speedup against parallelS, the time of the same
// graphs at Workers(nproc). serial holds serial times already measured (nil
// to measure them here).
func (r *run) referencePasses(graphs []*grappolo.Graph, opts []grappolo.Option, parallelS float64, serial []float64) error {
	w1, _, err := r.detectPass(graphs, nil, withWorkers(opts, 1), nil, "")
	if err != nil {
		return err
	}
	if serial == nil {
		for _, g := range graphs {
			t := time.Now()
			if _, err := grappolo.DetectSerial(g, 0); err != nil {
				return fmt.Errorf("serial reference: %w", err)
			}
			serial = append(serial, time.Since(t).Seconds())
		}
	}
	r.setLayer("engine.self_speedup", sum(w1)/parallelS)
	r.setLayer("seq.serial_s", sum(serial))
	r.setLayer("seq.speedup", sum(serial)/parallelS)
	return nil
}

// detectPass runs one Detector pass with opts over graphs and returns each
// call's wall time (seconds) and Result. Each engine run is appended to
// runs when runs is not nil; in a traced run with a span name, each call is
// a span (class: its label) with the engine's steps as children.
func (r *run) detectPass(graphs []*grappolo.Graph, labels []string, opts []grappolo.Option, runs *[]engineRun, spanName string) ([]float64, []*grappolo.Result, error) {
	d, err := grappolo.New(opts...)
	if err != nil {
		return nil, nil, err
	}
	times := make([]float64, len(graphs))
	results := make([]*grappolo.Result, len(graphs))
	for i, g := range graphs {
		t := time.Now()
		res, err := d.Detect(r.ctx, g)
		wall := time.Since(t)
		if err != nil {
			return nil, nil, fmt.Errorf("reference detection: %w", err)
		}
		times[i], results[i] = wall.Seconds(), res
		if runs != nil {
			*runs = append(*runs, observeRun(wall, res))
		}
		if r.tr != nil && spanName != "" {
			id := r.tr.add(0, spanName, t, wall, labels[i], "")
			r.tr.engineSpans(id, t, labels[i], res)
		}
	}
	return times, results, nil
}
