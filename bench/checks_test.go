package main

import (
	"context"
	"strings"
	"testing"

	"grappolo"
	"grappolo/generate"
)

func detected(t *testing.T) (*grappolo.Graph, *grappolo.Result) {
	t.Helper()
	g := generate.MustGenerate(generate.MG1, generate.Small, 1, 1)
	res, err := grappolo.Detect(context.Background(), g, grappolo.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities < 2 {
		t.Fatalf("need at least two communities, got %d", res.NumCommunities)
	}
	return g, res
}

// TestResultErrorCatchesCorruption requires every kind of corrupted result
// to fail the check a valid one passes.
func TestResultErrorCatchesCorruption(t *testing.T) {
	g, res := detected(t)
	if err := resultError(g, res); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	corruptions := map[string]func(r *grappolo.Result){
		"truncated":      func(r *grappolo.Result) { r.Membership = r.Membership[:len(r.Membership)-1] },
		"out of range":   func(r *grappolo.Result) { r.Membership[0] = int32(r.NumCommunities) },
		"negative":       func(r *grappolo.Result) { r.Membership[0] = -1 },
		"not dense":      func(r *grappolo.Result) { r.NumCommunities++ },
		"wrong Q":        func(r *grappolo.Result) { r.Modularity += 1e-3 },
		"moved a vertex": func(r *grappolo.Result) { r.Membership[0] = (r.Membership[0] + 1) % int32(r.NumCommunities) },
		"no communities": func(r *grappolo.Result) { r.NumCommunities = 0 },
	}
	for name, corrupt := range corruptions {
		c := *res
		c.Membership = append([]int32(nil), res.Membership...)
		corrupt(&c)
		if err := resultError(g, &c); err == nil {
			t.Errorf("%s: corrupted result passed the check", name)
		}
	}
}

func TestCheckerFailsOnAnyFailedCheck(t *testing.T) {
	var c checker
	if c.ok() {
		t.Error("a checker with no checks reports ok")
	}
	c.check("a", true, "")
	if !c.ok() {
		t.Error("passing check reported as failure")
	}
	for i := 0; i < 2*keepFailures; i++ {
		c.check("b", false, "failure %d", i)
	}
	c.check("b", true, "")
	if c.ok() {
		t.Error("failed check reported ok")
	}
	var out strings.Builder
	c.print(&out)
	if !strings.Contains(out.String(), "check FAILED b (10 failed, 1 passed)") || strings.Count(out.String(), "failure") != keepFailures {
		t.Errorf("unexpected report:\n%s", out.String())
	}
}

func TestHashMembership(t *testing.T) {
	a := []int32{0, 1, 1, 2}
	if hashMembership(a) != hashMembership([]int32{0, 1, 1, 2}) {
		t.Error("equal memberships hash differently")
	}
	if hashMembership(a) == hashMembership([]int32{0, 1, 2, 1}) {
		t.Error("different memberships hash equally")
	}
}
