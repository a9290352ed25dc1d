package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Config describes one load of the tree under analysis: where the module
// lives, what its import path is, and which build-tag set selects files.
// Running the suite under both tag sets CI builds (default and
// faultinject) is two loads with different Tags.
type Config struct {
	// Root is the directory holding the code to load. For the real
	// repository this is the module root; for anatest fixtures it is the
	// testdata/src directory.
	Root string
	// Module is the module's import path ("grappolo"); import paths under
	// it resolve to directories under Root. When empty, every non-stdlib
	// import path resolves GOPATH-style to Root/<path> — the layout anatest
	// fixtures use.
	Module string
	// Tags are the active build tags (as in -tags). GOOS/GOARCH default to
	// the runtime's values when empty.
	Tags         []string
	GOOS, GOARCH string
}

// A Package is one loaded, type-checked package plus the syntax of its
// tag-excluded sibling files.
type Package struct {
	Path    string
	Dir     string
	Files   []*ast.File
	Ignored []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// A Loader parses and type-checks module packages from source. One Loader
// caches every package (module-local and standard library) it has resolved,
// so loading ./... type-checks each dependency once.
type Loader struct {
	cfg  Config
	Fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*Package       // fully loaded module-local packages
	deps map[string]*types.Package // import cache incl. stdlib
	path []string                  // import stack, for cycle reporting
}

// NewLoader returns a Loader for cfg. Zero-value GOOS/GOARCH/Tags are
// defaulted here so callers can pass a minimal Config.
func NewLoader(cfg Config) *Loader {
	if cfg.GOOS == "" {
		cfg.GOOS = runtime.GOOS
	}
	if cfg.GOARCH == "" {
		cfg.GOARCH = runtime.GOARCH
	}
	fset := token.NewFileSet()
	return &Loader{
		cfg:  cfg,
		Fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: make(map[string]*Package),
		deps: make(map[string]*types.Package),
	}
}

// dirFor maps an import path to a directory under Root, or "" when the path
// is not local to this load (i.e. standard library).
func (l *Loader) dirFor(path string) string {
	rel := ""
	switch {
	case l.cfg.Module == "":
		rel = path
	case path == l.cfg.Module:
		rel = "."
	case strings.HasPrefix(path, l.cfg.Module+"/"):
		rel = strings.TrimPrefix(path, l.cfg.Module+"/")
	default:
		return ""
	}
	dir := filepath.Join(l.cfg.Root, filepath.FromSlash(rel))
	if l.cfg.Module == "" {
		// GOPATH-style fixture layout: only claim the path if the directory
		// actually exists, otherwise fall through to the standard library.
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			return ""
		}
	}
	return dir
}

// Import implements types.Importer over the loader's two sources: local
// directories under Root, and the standard library (compiled from GOROOT
// source and cached).
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.deps[path]; ok {
		return p, nil
	}
	if dir := l.dirFor(path); dir != "" {
		for _, on := range l.path {
			if on == path {
				return nil, fmt.Errorf("import cycle: %s", strings.Join(append(l.path, path), " -> "))
			}
		}
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	p, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.deps[path] = p
	return p, nil
}

// Load parses and type-checks the package with the given import path,
// returning the cached result on a second call.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("%s: not a package under %s", path, l.cfg.Root)
	}
	files, ignored, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no buildable Go files in %s", path, dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var terrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	l.path = append(l.path, path)
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	l.path = l.path[:len(l.path)-1]
	if len(terrs) > 0 {
		return nil, fmt.Errorf("%s: type errors: %w", path, terrs[0])
	}
	p := &Package{Path: path, Dir: dir, Files: files, Ignored: ignored, Types: tpkg, Info: info}
	l.pkgs[path] = p
	l.deps[path] = tpkg
	return p, nil
}

// parseDir parses every non-test .go file in dir, splitting the result into
// build-selected files and tag-excluded (syntax-only) files.
func (l *Loader) parseDir(dir string) (files, ignored []*ast.File, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, perr := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return nil, nil, perr
		}
		if l.fileSelected(name, f) {
			files = append(files, f)
		} else {
			ignored = append(ignored, f)
		}
	}
	return files, ignored, nil
}

// fileSelected reports whether the current GOOS/GOARCH/tag set builds the
// file, honoring both filename-implied constraints (_linux, _amd64) and the
// //go:build line.
func (l *Loader) fileSelected(name string, f *ast.File) bool {
	if !l.filenameSelected(name) {
		return false
	}
	expr := FileConstraint(f)
	if expr == nil {
		return true
	}
	return expr.Eval(l.tagTruth)
}

// FileConstraint returns the file's //go:build (or legacy // +build)
// expression, or nil when the file is unconstrained.
func FileConstraint(f *ast.File) constraint.Expr {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if constraint.IsGoBuild(c.Text) || constraint.IsPlusBuild(c.Text) {
				if expr, err := constraint.Parse(c.Text); err == nil {
					return expr
				}
			}
		}
	}
	return nil
}

// knownOS / knownArch mirror go/build's lists closely enough for this
// module: they only have to recognize filename suffixes and arch tags that
// could plausibly appear here.
var knownOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "js": true, "linux": true,
	"netbsd": true, "openbsd": true, "plan9": true, "solaris": true,
	"wasip1": true, "windows": true,
}

var knownArch = map[string]bool{
	"386": true, "amd64": true, "arm": true, "arm64": true, "loong64": true,
	"mips": true, "mipsle": true, "mips64": true, "mips64le": true,
	"ppc64": true, "ppc64le": true, "riscv64": true, "s390x": true,
	"wasm": true,
}

var unixOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "linux": true,
	"netbsd": true, "openbsd": true, "solaris": true,
}

// filenameSelected applies the name_GOOS_GOARCH.go convention.
func (l *Loader) filenameSelected(name string) bool {
	base := strings.TrimSuffix(name, ".go")
	parts := strings.Split(base, "_")
	if len(parts) < 2 {
		return true
	}
	last := parts[len(parts)-1]
	prev := ""
	if len(parts) >= 3 {
		prev = parts[len(parts)-2]
	}
	if knownArch[last] {
		if last != l.cfg.GOARCH {
			return false
		}
		return prev == "" || !knownOS[prev] || prev == l.cfg.GOOS
	}
	if knownOS[last] {
		return last == l.cfg.GOOS
	}
	return true
}

// tagTruth evaluates one build tag under the loader's configuration.
func (l *Loader) tagTruth(tag string) bool {
	switch tag {
	case l.cfg.GOOS, l.cfg.GOARCH, "gc":
		return true
	case "unix":
		return unixOS[l.cfg.GOOS]
	case "cgo":
		return false
	}
	if v, ok := strings.CutPrefix(tag, "go1."); ok {
		if n, err := strconv.Atoi(v); err == nil {
			return n <= 24 // the toolchain the module targets (go.mod)
		}
	}
	for _, t := range l.cfg.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// ListPackages walks Root and returns the import paths of every buildable
// package, in sorted order. Directories named testdata or vendor, and
// hidden/underscore directories, are skipped — the same pruning the go tool
// applies to ./... patterns.
func (l *Loader) ListPackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.cfg.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.cfg.Root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		hasGo := false
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(l.cfg.Root, p)
		if err != nil {
			return err
		}
		ip := l.cfg.Module
		if rel != "." {
			ip = l.cfg.Module + "/" + filepath.ToSlash(rel)
			if l.cfg.Module == "" {
				ip = filepath.ToSlash(rel)
			}
		}
		paths = append(paths, ip)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// Run loads every package matched by patterns and applies each analyzer,
// returning the combined, sorted findings. Patterns follow the go tool's
// shape: "./..." for the whole tree, "./dir/..." for a subtree, "./dir" for
// one package; an empty pattern list means "./...".
func Run(cfg Config, analyzers []*Analyzer, patterns []string) ([]Finding, error) {
	l := NewLoader(cfg)
	all, err := l.ListPackages()
	if err != nil {
		return nil, err
	}
	selected, err := matchPatterns(cfg, all, patterns)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, path := range selected {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		fs, err := RunPackage(l.Fset, pkg, analyzers)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	SortFindings(findings)
	return findings, nil
}

// RunPackage applies each analyzer to one loaded package.
func RunPackage(fset *token.FileSet, pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:     a,
			Fset:         fset,
			Files:        pkg.Files,
			IgnoredFiles: pkg.Ignored,
			Pkg:          pkg.Types,
			TypesInfo:    pkg.Info,
		}
		pass.Report = func(d Diagnostic) {
			findings = append(findings, Finding{
				Position: fset.Position(d.Pos),
				Analyzer: pass.Analyzer.Name,
				Message:  d.Message,
			})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	return findings, nil
}

// matchPatterns expands go-tool-style package patterns against the full
// package list.
func matchPatterns(cfg Config, all, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	keep := make(map[string]bool)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		rec := false
		if pat == "..." {
			pat, rec = "", true
		} else if s, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, rec = s, true
		}
		pat = strings.TrimSuffix(pat, "/")
		// Convert the root-relative directory pattern to an import path.
		ip := cfg.Module
		if pat != "" {
			if cfg.Module != "" {
				ip = cfg.Module + "/" + pat
			} else {
				ip = pat
			}
		}
		matched := false
		for _, p := range all {
			if p == ip || (rec && (ip == "" || strings.HasPrefix(p, ip+"/"))) {
				keep[p] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", pat)
		}
	}
	var out []string
	for _, p := range all {
		if keep[p] {
			out = append(out, p)
		}
	}
	return out, nil
}
