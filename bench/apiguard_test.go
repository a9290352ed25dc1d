package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// retiredNames are public names the ROADMAP plans to remove; the benchmark
// must not use them, so those removals cannot break it.
var retiredNames = map[string]bool{
	"NewBatcher": true, "ArcLayout": true, "SetGraphLayout": true, "FromEdgesLayout": true, "BalancedColoring": true,
}

// apiViolations lists imports of grappolo/internal/... and uses of retired
// names in the parsed files.
func apiViolations(fset *token.FileSet, files []*ast.File) []string {
	var out []string
	for _, f := range files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "grappolo/internal" || strings.HasPrefix(path, "grappolo/internal/") {
				out = append(out, fset.Position(imp.Pos()).String()+": imports "+path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && retiredNames[id.Name] {
				out = append(out, fset.Position(id.Pos()).String()+": uses "+id.Name)
			}
			return true
		})
	}
	return out
}

func parseGlob(t *testing.T, fset *token.FileSet, pattern string) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(pattern)
	if err != nil || len(paths) == 0 {
		t.Fatalf("glob %s: %v (%d files)", pattern, err, len(paths))
	}
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// TestBenchUsesOnlyPublicAPI scans every Go file of the benchmark.
func TestBenchUsesOnlyPublicAPI(t *testing.T) {
	fset := token.NewFileSet()
	for _, v := range apiViolations(fset, parseGlob(t, fset, "*.go")) {
		t.Error(v)
	}
}

func TestAPIViolationsDetected(t *testing.T) {
	src := `package p
import (
	"grappolo"
	core "grappolo/internal/core"
)
var _ = grappolo.NewBatcher
var _ = core.Options{}.BalancedColoring
func f(ArcLayout int) {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := apiViolations(fset, []*ast.File{f})
	if len(got) != 4 {
		t.Errorf("found %d violations, want 4: %v", len(got), got)
	}
}
