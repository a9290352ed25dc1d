// Command grappolovet is the repository's custom vet: it runs the
// internal/analysis suite — the analyzers that mechanize grappolo's
// hand-enforced hot-path and serving invariants — over module packages and
// fails the build when any invariant is violated.
//
// Usage:
//
//	go run ./cmd/grappolovet [-tags taglist] [-list] [-run names] [patterns]
//
// Patterns follow the go tool's shape ("./...", "./internal/par",
// "./examples/..."); the default is "./...". The -tags flag mirrors go
// build's: CI runs the suite once per supported tag set (default and
// faultinject) so tag-gated files are analyzed too.
//
// Exit status: 0 clean, 1 findings reported, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"grappolo/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("grappolovet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tags := fs.String("tags", "", "comma-separated build tags, as in go build -tags")
	list := fs.Bool("list", false, "list the analyzers in the suite and exit")
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	root := fs.String("C", "", "module root to analyze (default: nearest go.mod at or above the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	suite := analysis.Suite()
	if *list {
		for _, a := range suite {
			doc := a.Doc
			if i := strings.IndexByte(doc, '\n'); i >= 0 {
				doc = doc[:i]
			}
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, doc)
		}
		return 0
	}
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range suite {
			byName[a.Name] = a
		}
		var picked []*analysis.Analyzer
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "grappolovet: unknown analyzer %q (see -list)\n", name)
				return 2
			}
			picked = append(picked, a)
		}
		suite = picked
	}

	moduleRoot, moduleName, err := findModule(*root)
	if err != nil {
		fmt.Fprintf(stderr, "grappolovet: %v\n", err)
		return 2
	}

	cfg := analysis.Config{Root: moduleRoot, Module: moduleName}
	if *tags != "" {
		for _, t := range strings.Split(*tags, ",") {
			if t = strings.TrimSpace(t); t != "" {
				cfg.Tags = append(cfg.Tags, t)
			}
		}
	}

	findings, err := analysis.Run(cfg, suite, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "grappolovet: %v\n", err)
		return 2
	}
	for _, f := range findings {
		// Print module-relative paths: stable across machines and CI.
		if rel, rerr := filepath.Rel(moduleRoot, f.Position.Filename); rerr == nil && !strings.HasPrefix(rel, "..") {
			f.Position.Filename = rel
		}
		fmt.Fprintln(stdout, f.String())
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "grappolovet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// findModule locates the module root and reads its path from go.mod. With
// an explicit root it just reads that directory's go.mod; otherwise it
// walks up from the working directory.
func findModule(root string) (dir, module string, err error) {
	if root == "" {
		root, err = os.Getwd()
		if err != nil {
			return "", "", err
		}
		for {
			if _, serr := os.Stat(filepath.Join(root, "go.mod")); serr == nil {
				break
			}
			parent := filepath.Dir(root)
			if parent == root {
				return "", "", fmt.Errorf("no go.mod at or above the working directory")
			}
			root = parent
		}
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return root, strings.TrimSpace(rest), nil
		}
	}
	return "", "", fmt.Errorf("no module directive in %s", filepath.Join(root, "go.mod"))
}
