package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestHotpathEscapes cross-checks the //grappolo:hotpath contract against
// the compiler. hotalloc reads the source, so it cannot see every heap
// allocation — a make or new whose result escapes, for one. This test builds
// every package with an annotated function under -gcflags=-m and fails if
// the escape analysis reports "escapes to heap" or "moved to heap" on a line
// inside one of them.
func TestHotpathEscapes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds packages with compiler diagnostics; skipped in -short runs")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	hot, err := hotpathSpans(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) == 0 {
		t.Fatal("found no //grappolo:hotpath functions")
	}
	pkgSet := map[string]bool{}
	for file := range hot {
		rel, err := filepath.Rel(root, filepath.Dir(file))
		if err != nil {
			t.Fatal(err)
		}
		pkgSet["./"+filepath.ToSlash(rel)] = true
	}
	pkgs := slices.Sorted(maps.Keys(pkgSet))
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m"}, pkgs...)...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m %v: %v\n%s", pkgs, err, out)
	}
	reported := map[string]bool{} // files the compiler said anything about
	for _, line := range strings.Split(string(out), "\n") {
		parts := strings.SplitN(line, ":", 4)
		if len(parts) < 4 {
			continue
		}
		file := parts[0]
		if !filepath.IsAbs(file) {
			file = filepath.Join(root, file)
		}
		reported[file] = true
		if !strings.Contains(parts[3], "escapes to heap") && !strings.Contains(parts[3], "moved to heap") {
			continue
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		for _, s := range hot[file] {
			if s.from <= n && n <= s.to {
				t.Errorf("%s (inside //grappolo:hotpath %s)", line, s.name)
			}
		}
	}
	// A file the compiler printed nothing about was not checked at all.
	for file := range hot {
		if !reported[file] {
			t.Errorf("%s: no -m diagnostics, so its hotpath functions went unchecked", file)
		}
	}
}

// hotSpan is the line range of one //grappolo:hotpath function.
type hotSpan struct {
	name     string
	from, to int
}

// hotpathSpans parses every non-test Go file of the module under root
// (skipping testdata, hidden directories and nested modules) and returns
// the annotated functions' line ranges by absolute file path.
func hotpathSpans(root string) (map[string][]hotSpan, error) {
	fset := token.NewFileSet()
	hot := map[string][]hotSpan{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			hot[path] = append(hot[path], hotSpan{
				name: fd.Name.Name,
				from: fset.Position(fd.Pos()).Line,
				to:   fset.Position(fd.End()).Line,
			})
		}
		return nil
	})
	return hot, err
}
