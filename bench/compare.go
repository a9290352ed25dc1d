package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// boundSpec is one end-to-end metric of BENCHMARK.json.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// failedShare is compared like an end-to-end metric, from each run's
// failed and attempted counts: any increase of its median is a regression.
var failedShare = boundSpec{Name: "failed_share", Unit: "share", Better: "lower", Bound: 0}

// loadBounds reads the end-to-end metrics and their bounds from path, or
// from BENCHMARK.json in the working directory or its parent.
func loadBounds(path string) ([]boundSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	var data []byte
	var err error
	for _, p := range candidates {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("read bounds: %w", err)
	}
	var spec struct {
		EndToEnd []boundSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parse bounds: %w", err)
	}
	return append(spec.EndToEnd, failedShare), nil
}

// loadRuns reads dir/<workload>/* as saved runs, each file one run's
// standard output ending in its JSON report, in file-name order.
func loadRuns(dir string) (map[string][]report, error) {
	workloadDirs, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("read runs: %w", err)
	}
	out := map[string][]report{}
	for _, wd := range workloadDirs {
		if !wd.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, wd.Name()))
		if err != nil {
			return nil, fmt.Errorf("read runs: %w", err)
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			path := filepath.Join(dir, wd.Name(), f.Name())
			rep, err := readReport(path)
			if err != nil {
				return nil, err
			}
			out[wd.Name()] = append(out[wd.Name()], rep)
		}
	}
	return out, nil
}

// readReport parses the last non-empty line of a saved run.
func readReport(path string) (report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return report{}, fmt.Errorf("read run: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return report{}, fmt.Errorf("%s: last line is not a report: %w", path, err)
	}
	return rep, nil
}

// metricValues returns each run's value of the metric; ok is false when some run
// lacks it.
func metricValues(runs []report, name string) (out []float64, ok bool) {
	for _, rep := range runs {
		if name == failedShare.Name {
			out = append(out, float64(rep.Failed)/math.Max(1, float64(rep.Attempted)))
			continue
		}
		m, found := rep.Metrics[name]
		if !found {
			return nil, false
		}
		out = append(out, m.Value)
	}
	return out, len(out) > 0
}

// verdict is the comparison of one (metric, workload) pair.
type verdict struct {
	parentMed, parentQ1, parentQ3 float64
	changeMed, changeQ1, changeQ3 float64
	wins, pairs                   int
	label                         string // regressed, unresolved, improved or unchanged
}

// judge compares a metric's parent and change runs. Runs are paired in
// order. The rules:
//   - regressed: the change's median is worse than the parent's by more
//     than the bound (a share of the parent's median);
//   - unresolved: either side's interquartile range, as a share of the
//     parent's median, is wider than the bound, unless every change run is
//     better than every parent run;
//   - improved: the change wins at least 9 of 10 pairs (ties count for
//     neither) and the medians differ by more than the parent's
//     interquartile range;
//   - unchanged: otherwise.
func judge(parent, change []float64, b boundSpec) verdict {
	v := verdict{parentMed: median(parent), changeMed: median(change)}
	v.parentQ1, v.parentQ3 = quartiles(parent)
	v.changeQ1, v.changeQ3 = quartiles(change)
	higher := b.Better == "higher"
	better := func(c, p float64) bool {
		if higher {
			return c > p
		}
		return c < p
	}
	v.pairs = min(len(parent), len(change))
	for i := 0; i < v.pairs; i++ {
		if better(change[i], parent[i]) {
			v.wins++
		}
	}
	worsening := v.changeMed - v.parentMed
	if higher {
		worsening = -worsening
	}
	base := math.Abs(v.parentMed)
	rel := func(x float64) float64 {
		if base == 0 {
			if x > 0 {
				return math.Inf(1)
			}
			return 0
		}
		return x / base
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	spread := math.Max(v.parentQ3-v.parentQ1, v.changeQ3-v.changeQ1)
	switch {
	case rel(worsening) > b.Bound:
		v.label = "regressed"
	case rel(spread) > b.Bound && !allBetter:
		v.label = "unresolved"
	case v.pairs > 0 && 10*v.wins >= 9*v.pairs && better(v.changeMed, v.parentMed) &&
		math.Abs(v.changeMed-v.parentMed) > v.parentQ3-v.parentQ1:
		v.label = "improved"
	default:
		v.label = "unchanged"
	}
	return v
}

// runCompare prints a verdict for every (metric, workload) pair of the
// runs saved under parentDir and changeDir, and reports false when any
// pair regressed or any change run failed its correctness checks.
func runCompare(boundsPath, parentDir, changeDir string, w io.Writer) (bool, error) {
	bounds, err := loadBounds(boundsPath)
	if err != nil {
		return false, err
	}
	parent, err := loadRuns(parentDir)
	if err != nil {
		return false, err
	}
	change, err := loadRuns(changeDir)
	if err != nil {
		return false, err
	}
	var workloads []string
	for wl := range parent {
		if _, ok := change[wl]; ok {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return false, errors.New("no workload has runs on both sides")
	}
	ok := true
	fmt.Fprintf(w, "%-18s %-15s %-36s %-36s %-6s %s\n", "metric", "workload", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range workloads {
		for _, rep := range change[wl] {
			if !rep.Correct {
				fmt.Fprintf(w, "%-18s %-15s a change run failed its correctness checks\n", "correct", wl)
				ok = false
				break
			}
		}
		for _, b := range bounds {
			p, okP := metricValues(parent[wl], b.Name)
			c, okC := metricValues(change[wl], b.Name)
			if !okP || !okC {
				fmt.Fprintf(w, "%-18s %-15s missing on one side\n", b.Name, wl)
				continue
			}
			v := judge(p, c, b)
			if v.label == "regressed" {
				ok = false
			}
			fmt.Fprintf(w, "%-18s %-15s %-36s %-36s %2d/%-3d %s\n", b.Name, wl,
				fmt.Sprintf("%.6g [%.6g, %.6g]", v.parentMed, v.parentQ1, v.parentQ3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", v.changeMed, v.changeQ1, v.changeQ3),
				v.wins, v.pairs, v.label)
		}
	}
	return ok, nil
}
