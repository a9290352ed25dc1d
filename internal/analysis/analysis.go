// Package analysis is the repository's static-analysis tier: a small,
// dependency-free framework in the shape of golang.org/x/tools/go/analysis
// plus the four grappolo-specific analyzers that mechanize invariants the
// codebase otherwise enforces by convention (see doc.go's "Static analysis"
// section at the repo root):
//
//   - capturebody:    bodies passed to par.ForChunkCtx-family helpers must
//     not be capturing closures (the PR 3 zero-alloc contract)
//   - internalimport: examples/ and cmd/grappolo must not import
//     grappolo/internal/...
//   - typederr:       the package's sentinel errors are compared with
//     errors.Is, never ==/!=; fmt.Errorf wrapping uses %w
//   - hotalloc:       functions annotated //grappolo:hotpath stay free of
//     the allocation/dispatch constructs the hot path bans
//
// The framework is intentionally a structural subset of go/analysis —
// Analyzer, Pass, Diagnostic, and an analysistest-style fixture runner
// (package anatest) — implemented on the standard library's go/ast,
// go/types and go/build/constraint only, because the build environment
// vendors no third-party modules. Porting an analyzer to the real
// golang.org/x/tools/go/analysis API is a mechanical rename.
package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one analysis: a name, prose documentation, and the
// Run function applied to every loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the grappolovet
	// command line. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: first line is a summary.
	Doc string
	// Run inspects one package and reports findings through pass.Report.
	// A non-nil error means the analyzer itself failed (not a finding).
	Run func(pass *Pass) error
}

// A Pass hands one analyzer one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's build-selected, type-checked syntax trees
	// (test files are never loaded).
	Files []*ast.File
	// IgnoredFiles holds syntax-only trees for same-directory .go files that
	// the current build-tag set EXCLUDES (e.g. the faultinject-only files in
	// a default build). They are parsed but not type-checked; internalimport
	// reads them so a tag-gated file cannot hide an import from the guard.
	IgnoredFiles []*ast.File
	Pkg          *types.Package
	TypesInfo    *types.Info
	// Report delivers one finding.
	Report func(Diagnostic)
}

// Reportf reports a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a resolved Diagnostic: the position is absolute and the
// reporting analyzer is recorded, so it can be printed and sorted without
// the FileSet at hand.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

// String formats the finding the way go vet does: path:line:col: message.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Position, f.Analyzer, f.Message)
}

// SortFindings orders findings by file, line, column, analyzer — the stable
// order grappolovet prints and tests compare against.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Suite returns the full analyzer suite in the order grappolovet runs it.
func Suite() []*Analyzer {
	return []*Analyzer{
		CaptureBody,
		InternalImport,
		TypedErr,
		HotAlloc,
	}
}

// exprString renders an expression using go/printer; shared by several
// analyzers' diagnostics.
func exprString(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return "<expr>"
	}
	return buf.String()
}
