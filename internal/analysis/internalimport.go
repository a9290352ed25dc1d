package analysis

import (
	"strconv"
	"strings"
)

// InternalImport mechanizes the public-API migration guard from PR 4:
// examples/ exists to demonstrate the public grappolo surface and
// cmd/grappolo is the public CLI, so neither may reach into
// grappolo/internal/... — an internal import in either would silently turn
// documentation into a dependency on unstable internals. This replaces the
// CI grep (which only covered examples/ and only saw literal strings) with
// a syntax-level check over the same packages plus cmd/grappolo.
var InternalImport = &Analyzer{
	Name: "internalimport",
	Doc: "forbid grappolo/internal imports from examples/ and cmd/grappolo\n\n" +
		"Packages under examples/ and the public CLI must compile against the public\n" +
		"API only; an internal import there is a doc-rot and stability hazard.",
	Run: runInternalImport,
}

// guardedPackage reports whether the package at import path pkg is one the
// public-API guard covers: anything under an examples/ directory, and the
// public CLI cmd/grappolo (including any subpackages it grows). Matching on
// path SEGMENTS keeps cmd/grappolovet and friends out of scope.
func guardedPackage(pkg string) bool {
	segs := strings.Split(pkg, "/")
	for i, s := range segs {
		if s == "examples" && i+1 < len(segs) {
			return true
		}
		if s == "cmd" && i+1 < len(segs) && segs[i+1] == "grappolo" {
			return true
		}
	}
	return false
}

// internalImportPath reports whether path crosses into grappolo's internal
// tree.
func internalImportPath(path string) bool {
	if path == "grappolo/internal" || strings.HasPrefix(path, "grappolo/internal/") {
		return true
	}
	// Fixture layouts may use a different module name; any .../internal/...
	// under a grappolo module root counts.
	return strings.Contains(path, "grappolo/internal/")
}

func runInternalImport(pass *Pass) error {
	if !guardedPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if internalImportPath(path) {
				pass.Reportf(imp.Pos(),
					"%s imports internal package %s; examples and cmd/grappolo must use the public grappolo API",
					pass.Pkg.Path(), path)
			}
		}
	}
	// The guard extends to tag-excluded files: a faultinject-only file in
	// an example must not smuggle an internal import either.
	for _, f := range pass.IgnoredFiles {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if internalImportPath(path) {
				pass.Reportf(imp.Pos(),
					"%s imports internal package %s (in a build-tag-excluded file); examples and cmd/grappolo must use the public grappolo API",
					pass.Pkg.Path(), path)
			}
		}
	}
	return nil
}
