package harness

import (
	"bytes"
	"strings"
	"testing"

	"grappolo/internal/generate"
)

func testOpts() Options {
	return Options{Scale: generate.Small, Workers: 4, ColoringCutoff: 32}.Defaults()
}

func TestRunSchemeAllSchemes(t *testing.T) {
	o := testOpts()
	g, err := o.Input(generate.CNR)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range AllSchemes() {
		rs := RunScheme(g, s, o)
		if rs.Scheme != s {
			t.Fatalf("scheme mislabeled: %v", rs.Scheme)
		}
		if rs.Modularity <= 0 {
			t.Fatalf("%s: Q=%v", s, rs.Modularity)
		}
		if rs.Runtime <= 0 || rs.Iterations == 0 || rs.Phases == 0 {
			t.Fatalf("%s: missing stats %+v", s, rs)
		}
		if len(rs.Membership) != g.N() {
			t.Fatalf("%s: membership length", s)
		}
		if len(rs.Trajectory) == 0 {
			t.Fatalf("%s: no trajectory", s)
		}
	}
}

// TestDefaultsPinPaperColoringPolicy pins that the paper-table runs keep
// the paper's §6.1 policy (colored threshold 1e-2, scaled vertex cutoff)
// whatever the library's defaults are.
func TestDefaultsPinPaperColoringPolicy(t *testing.T) {
	c := Options{}.Defaults().coreOptions(BaselineVFColor)
	if c.ColoredThreshold != 1e-2 || c.ColoringVertexCutoff != 64 {
		t.Fatalf("colored threshold %v, vertex cutoff %d; want the paper's 1e-2 and the suite's 64",
			c.ColoredThreshold, c.ColoringVertexCutoff)
	}
}

func TestRunSchemePanicsOnBadScheme(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	o := testOpts()
	o.coreOptions(Serial)
}

func TestTable1AllInputs(t *testing.T) {
	rows, err := Table1(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("%d rows, want 11", len(rows))
	}
	var buf bytes.Buffer
	WriteTable1(&buf, rows)
	out := buf.String()
	for _, in := range generate.Suite() {
		if !strings.Contains(out, string(in)) {
			t.Fatalf("Table 1 output missing %s", in)
		}
	}
}

func TestTable2SerialVsParallel(t *testing.T) {
	rows, err := Table2(testOpts(), []generate.Input{generate.CNR, generate.MG1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ParallelQ <= 0 || r.SerialQ <= 0 {
			t.Fatalf("%s: bad modularities %+v", r.Input, r)
		}
		if r.Speedup <= 0 {
			t.Fatalf("%s: speedup not computed", r.Input)
		}
		// Headline claim: quality within a narrow band of serial.
		if r.ParallelQ < r.SerialQ-0.05 {
			t.Fatalf("%s: parallel Q %.4f far below serial %.4f", r.Input, r.ParallelQ, r.SerialQ)
		}
	}
	var buf bytes.Buffer
	WriteTable2(&buf, rows, 4)
	if !strings.Contains(buf.String(), "speedup") {
		t.Fatal("Table 2 header missing")
	}
}

func TestTable3QualityMeasures(t *testing.T) {
	rows, err := Table3(testOpts(), []generate.Input{generate.MG1})
	if err != nil {
		t.Fatal(err)
	}
	m := rows[0].Measures
	// MG-style planted inputs: serial and parallel agree strongly (paper
	// reports ~99.6-100% on MG1).
	if m.RandIndex < 0.9 {
		t.Fatalf("MG1 Rand index %.3f < 0.9", m.RandIndex)
	}
	var buf bytes.Buffer
	WriteTable3(&buf, rows)
	if !strings.Contains(buf.String(), "Rand") {
		t.Fatal("Table 3 header missing")
	}
}

func TestTable4MultiPhaseColoring(t *testing.T) {
	rows, err := Table4(testOpts(), []generate.Input{generate.Channel}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.FirstQMin > r.FirstQMax || r.MultiQMin > r.MultiQMax {
		t.Fatalf("min > max: %+v", r)
	}
	if r.FirstIters == 0 || r.MultiIters == 0 {
		t.Fatalf("iterations missing: %+v", r)
	}
	var buf bytes.Buffer
	WriteTable4(&buf, rows)
	if !strings.Contains(buf.String(), "multi-phase") {
		t.Fatal("Table 4 header missing")
	}
}

func TestTable5Thresholds(t *testing.T) {
	rows, err := Table5(testOpts(), []generate.Input{generate.Channel}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// Coarse threshold must not take more iterations than fine.
	if r.CoarseIters > r.FineIters {
		t.Fatalf("coarse threshold used more iterations: %+v", r)
	}
	var buf bytes.Buffer
	WriteTable5(&buf, rows)
	if !strings.Contains(buf.String(), "1e-2") {
		t.Fatal("Table 5 header missing")
	}
}

func TestTrajectoriesAndWriter(t *testing.T) {
	sets, err := Trajectories(testOpts(), []generate.Input{generate.RGG}, AllSchemes())
	if err != nil {
		t.Fatal(err)
	}
	ts := sets[0]
	for _, s := range AllSchemes() {
		curve := ts.Curves[s]
		if len(curve) == 0 {
			t.Fatalf("%s: empty curve", s)
		}
		// Final value must be the best seen (within fp noise): trajectories
		// climb toward convergence.
		last := curve[len(curve)-1]
		for _, q := range curve {
			if q > last+0.05 {
				t.Fatalf("%s: trajectory regressed: %v then ended at %v", s, q, last)
			}
		}
	}
	var buf bytes.Buffer
	WriteTrajectories(&buf, sets)
	if !strings.Contains(buf.String(), "rgg/serial:") {
		t.Fatal("trajectory output missing serial curve")
	}
}

func TestScalingAndSpeedups(t *testing.T) {
	curve, err := Scaling(testOpts(), generate.RGG, BaselineVFColor, []int{1, 2, 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 3 {
		t.Fatalf("%d points", len(curve.Points))
	}
	rel := curve.RelativeSpeedups()
	if rel[0] != 1 {
		t.Fatalf("first relative speedup %v, want 1", rel[0])
	}
	abs := curve.AbsoluteSpeedups()
	if abs == nil {
		t.Fatal("absolute speedups missing despite serial run")
	}
	for _, v := range abs {
		if v <= 0 {
			t.Fatalf("non-positive absolute speedup %v", v)
		}
	}
	var buf bytes.Buffer
	WriteScaling(&buf, curve)
	if !strings.Contains(buf.String(), "workers=1") {
		t.Fatal("scaling output malformed")
	}
	// Without serial: abs speedups nil.
	c2, err := Scaling(testOpts(), generate.RGG, Baseline, []int{1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if c2.AbsoluteSpeedups() != nil {
		t.Fatal("absolute speedups should be nil without serial reference")
	}
}

func TestBreakdownSweep(t *testing.T) {
	pts, err := BreakdownSweep(testOpts(), generate.RGG, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Breakdown.Clustering <= 0 {
			t.Fatalf("workers=%d: no clustering time", p.Workers)
		}
	}
	var buf bytes.Buffer
	WriteBreakdown(&buf, generate.RGG, pts)
	if !strings.Contains(buf.String(), "rebuild") {
		t.Fatal("breakdown header missing")
	}
}

func TestProfiles(t *testing.T) {
	mod, rt, err := Profiles(testOpts(), []generate.Input{generate.CNR, generate.RGG})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range AllSchemes() {
		if len(mod[string(s)]) != 2 || len(rt[string(s)]) != 2 {
			t.Fatalf("%s: wrong profile lengths", s)
		}
		for _, r := range mod[string(s)] {
			if r < 1 {
				t.Fatalf("%s: profile ratio %v < 1", s, r)
			}
		}
	}
	var buf bytes.Buffer
	WriteProfiles(&buf, "modularity", mod)
	WriteProfiles(&buf, "runtime", rt)
	if !strings.Contains(buf.String(), "baseline+vf+color") {
		t.Fatal("profile output missing scheme")
	}
}

func TestOptionsInputUnknown(t *testing.T) {
	o := testOpts()
	if _, err := o.Input(generate.Input("bogus")); err == nil {
		t.Fatal("want error")
	}
}

func TestErrorPropagationFromUnknownInput(t *testing.T) {
	o := testOpts()
	bogus := []generate.Input{generate.Input("bogus")}
	if _, err := Table1(Options{Scale: 99}.Defaults()); err != nil {
		t.Log("scale beyond range falls back to large; no error expected:", err)
	}
	if _, err := Table2(o, bogus); err == nil {
		t.Fatal("Table2 should propagate input errors")
	}
	if _, err := Table3(o, bogus); err == nil {
		t.Fatal("Table3 should propagate input errors")
	}
	if _, err := Table4(o, bogus, 1); err == nil {
		t.Fatal("Table4 should propagate input errors")
	}
	if _, err := Table5(o, bogus, 1); err == nil {
		t.Fatal("Table5 should propagate input errors")
	}
	if _, err := Trajectories(o, bogus, AllSchemes()); err == nil {
		t.Fatal("Trajectories should propagate input errors")
	}
	if _, err := Scaling(o, bogus[0], Baseline, []int{1}, false); err == nil {
		t.Fatal("Scaling should propagate input errors")
	}
	if _, err := BreakdownSweep(o, bogus[0], []int{1}); err == nil {
		t.Fatal("BreakdownSweep should propagate input errors")
	}
	if _, _, err := Profiles(o, bogus); err == nil {
		t.Fatal("Profiles should propagate input errors")
	}
	if _, err := RelatedWork(o, bogus); err == nil {
		t.Fatal("RelatedWork should propagate input errors")
	}
}

func TestRunSchemePLM(t *testing.T) {
	o := testOpts()
	g, err := o.Input(generate.CoPapers)
	if err != nil {
		t.Fatal(err)
	}
	rs := RunScheme(g, PLMScheme, o)
	if rs.Modularity <= 0 || rs.Iterations == 0 {
		t.Fatalf("PLM run: %+v", rs)
	}
}

func TestRelatedWorkComparison(t *testing.T) {
	rows, err := RelatedWork(testOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3 (paper's common inputs)", len(rows))
	}
	for _, r := range rows {
		if r.GrappoloQ <= 0 || r.PLMQ <= 0 {
			t.Fatalf("%s: bad modularities %+v", r.Input, r)
		}
		// §7 claim, with a small-scale noise band.
		if r.GrappoloQ < r.PLMQ-0.02 {
			t.Fatalf("%s: grappolo %.4f well below PLM %.4f", r.Input, r.GrappoloQ, r.PLMQ)
		}
	}
	var buf bytes.Buffer
	WriteRelatedWork(&buf, rows)
	if !strings.Contains(buf.String(), "plm Q") {
		t.Fatal("related-work header missing")
	}
}
