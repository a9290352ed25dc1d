package analysis_test

import (
	"path/filepath"
	"testing"

	"grappolo/internal/analysis"
	"grappolo/internal/analysis/anatest"
)

func TestCaptureBody(t *testing.T) {
	anatest.Run(t, "testdata", analysis.CaptureBody, "capturebody")
}

func TestInternalImport(t *testing.T) {
	anatest.Run(t, "testdata", analysis.InternalImport,
		"grappolo/examples/demo",
		"grappolo/examples/clean",
		"grappolo/cmd/grappolo",
		"grappolo/cmd/benchx",
	)
}

func TestTypedErr(t *testing.T) {
	anatest.Run(t, "testdata", analysis.TypedErr, "typederr")
}

func TestHotAlloc(t *testing.T) {
	anatest.Run(t, "testdata", analysis.HotAlloc, "hotalloc")
}

// TestRepoSuiteClean is the in-tree mirror of the blocking grappolovet CI
// step: the full suite over the whole module must report nothing, under the
// default tag set and under the faultinject tag set CI also builds, which
// arms the fault-injection probes. A finding here is a real invariant
// violation in the tree — fix the code, don't touch the analyzer.
func TestRepoSuiteClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short runs")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, tags := range [][]string{nil, {"faultinject"}} {
		cfg := analysis.Config{Root: root, Module: "grappolo", Tags: tags}
		findings, err := analysis.Run(cfg, analysis.Suite(), nil)
		if err != nil {
			t.Fatalf("tags %v: %v", tags, err)
		}
		for _, f := range findings {
			t.Errorf("tags %v: %s", tags, f)
		}
	}
}

// TestSuiteNames pins the analyzer lineup: CI and docs reference these
// names, so renames must be deliberate.
func TestSuiteNames(t *testing.T) {
	want := []string{"capturebody", "internalimport", "typederr", "hotalloc"}
	suite := analysis.Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("%s: missing Doc or Run", a.Name)
		}
	}
}
