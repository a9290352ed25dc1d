package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grappolo/internal/graph"
)

func writeTempGraph(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	// Two triangles joined by one edge.
	content := "0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n2 3\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunOnFile(t *testing.T) {
	path := writeTempGraph(t)
	if err := run([]string{"-file", path, "-variant", "baseline", "-q"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSerial(t *testing.T) {
	path := writeTempGraph(t)
	if err := run([]string{"-file", path, "-serial"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSyntheticInputWithStats(t *testing.T) {
	if err := run([]string{"-input", "rgg", "-scale", "small", "-variant", "vfcolor", "-stats", "-q"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunHierarchyAndTop(t *testing.T) {
	path := writeTempGraph(t)
	if err := run([]string{"-file", path, "-variant", "baseline", "-hierarchy", "-top", "2", "-q"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCompareMode(t *testing.T) {
	path := writeTempGraph(t)
	if err := run([]string{"-file", path, "-variant", "vfcolor", "-compare", "-q"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBalanceModes(t *testing.T) {
	path := writeTempGraph(t)
	for _, mode := range []string{"off", "vertex", "arc", "auto"} {
		if err := run([]string{"-file", path, "-variant", "vfcolor", "-color-cutoff", "1", "-balance", mode, "-q"}); err != nil {
			t.Fatalf("balance %s: %v", mode, err)
		}
	}
	if err := run([]string{"-file", path, "-balance", "nope", "-q"}); err == nil {
		t.Fatal("want error for unknown balance mode")
	}
}

func TestRunCPMObjective(t *testing.T) {
	path := writeTempGraph(t)
	if err := run([]string{"-file", path, "-variant", "vfcolor", "-objective", "cpm", "-cpm-gamma", "0.5", "-q"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-file", path, "-objective", "nope", "-q"}); err == nil {
		t.Fatal("want error for unknown objective")
	}
}

func TestRunWritesMembership(t *testing.T) {
	path := writeTempGraph(t)
	out := filepath.Join(t.TempDir(), "membership.txt")
	if err := run([]string{"-file", path, "-variant", "vf", "-out", out, "-q"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 6 {
		t.Fatalf("membership has %d lines, want 6", len(lines))
	}
	if !strings.HasPrefix(lines[0], "0 ") {
		t.Fatalf("first line %q", lines[0])
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                                // no input
		{"-file", "a", "-input", "b"},                     // both sources
		{"-file", "/nonexistent/path.txt"},                // missing file
		{"-input", "bogus"},                               // unknown input
		{"-input", "rgg", "-scale", "galaxy"},             // bad scale
		{"-input", "rgg", "-variant", "nope"},             // bad variant
		{"-input", "rgg", "-out", "/dev/null/x"},          // unwritable out
		{"-input", "rgg", "-threshold", "NaN"},            // non-finite threshold, parallel
		{"-input", "rgg", "-serial", "-threshold", "NaN"}, // non-finite threshold, serial
		{"-input", "rgg", "-threshold", "-1"},             // negative threshold, parallel
		{"-input", "rgg", "-serial", "-threshold", "-1"},  // negative threshold, serial
		{"-input", "rgg", "-color-cutoff", "-5"},          // negative coloring cutoff
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("args %v: want error", args)
		}
	}
}

func TestVariantOptions(t *testing.T) {
	for _, v := range []string{"baseline", "vf", "vfcolor"} {
		if _, err := variantOptions(v, 2); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
	}
	if _, err := variantOptions("x", 2); err == nil {
		t.Fatal("want error")
	}
}

func TestParseScale(t *testing.T) {
	for _, s := range []string{"small", "medium", "large"} {
		if _, err := parseScale(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	if _, err := parseScale("huge"); err == nil {
		t.Fatal("want error")
	}
}

func TestLoadGraphFromBinary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g := b.Build(1)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := loadGraph(path, "", "small", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 3 {
		t.Fatalf("n=%d", got.N())
	}
}

func TestRunServeMode(t *testing.T) {
	path := writeTempGraph(t)
	if err := run([]string{"-file", path, "-serve", "-clients", "3", "-requests", "7", "-workers", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunServeModeBatched(t *testing.T) {
	path := writeTempGraph(t)
	if err := run([]string{"-file", path, "-serve", "-cache", "-clients", "4", "-requests", "16", "-workers", "1", "-q"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCacheRequiresServe(t *testing.T) {
	path := writeTempGraph(t)
	if err := run([]string{"-file", path, "-cache"}); err == nil {
		t.Fatal("-cache without -serve must be rejected")
	}
}

func TestRunServeModeGuarded(t *testing.T) {
	path := writeTempGraph(t)
	if err := run([]string{"-file", path, "-serve", "-cache",
		"-maxqueue", "8", "-deadline", "30s", "-degrade", "4",
		"-clients", "4", "-requests", "16", "-workers", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunGuardFlagsRequireServe(t *testing.T) {
	path := writeTempGraph(t)
	for _, args := range [][]string{
		{"-file", path, "-maxqueue", "4"},
		{"-file", path, "-deadline", "1s"},
		{"-file", path, "-degrade", "2"},
	} {
		if err := run(args); err == nil {
			t.Fatalf("%v without -serve must be rejected", args[2])
		}
	}
}

func TestRunServeModeGuardInvalid(t *testing.T) {
	path := writeTempGraph(t)
	// -degrade 0 is "off", but the depth bound still validates: a request
	// path exists only through NewGuard, whose errors must surface.
	if err := run([]string{"-file", path, "-serve", "-deadline", "-1s"}); err == nil {
		t.Fatal("negative -deadline must be rejected")
	}
}
