package main

import (
	"fmt"
	"io"
	"math"

	"grappolo"
)

// checker collects the outcome of every correctness check of a run, by
// check name, keeping the first few failure messages of each.
type checker struct {
	order  []string
	passed map[string]int
	failed map[string]int
	msgs   map[string][]string
}

const keepFailures = 5

// check records one evaluation of the named check.
func (c *checker) check(name string, ok bool, format string, args ...any) {
	if c.passed == nil {
		c.passed, c.failed, c.msgs = map[string]int{}, map[string]int{}, map[string][]string{}
	}
	if c.passed[name]+c.failed[name] == 0 {
		c.order = append(c.order, name)
	}
	if ok {
		c.passed[name]++
		return
	}
	c.failed[name]++
	if len(c.msgs[name]) < keepFailures {
		c.msgs[name] = append(c.msgs[name], fmt.Sprintf(format, args...))
	}
}

// ok reports whether at least one check ran and none failed.
func (c *checker) ok() bool {
	if len(c.order) == 0 {
		return false
	}
	for _, n := range c.failed {
		if n > 0 {
			return false
		}
	}
	return true
}

// print writes one line per check with its counts and failure messages.
func (c *checker) print(w io.Writer) {
	for _, name := range c.order {
		if c.failed[name] == 0 {
			fmt.Fprintf(w, "check ok     %s (%d)\n", name, c.passed[name])
			continue
		}
		fmt.Fprintf(w, "check FAILED %s (%d failed, %d passed)\n", name, c.failed[name], c.passed[name])
		for _, m := range c.msgs[name] {
			fmt.Fprintf(w, "    %s\n", m)
		}
	}
}

// modularityTolerance is how far a Result's reported modularity may be from
// the value recomputed from its membership.
const modularityTolerance = 1e-6

// resultError returns why res is not a valid detection on g: a membership
// not of length N or not dense in [0, NumCommunities), or a reported
// modularity its membership does not reproduce. nil means valid.
func resultError(g *grappolo.Graph, res *grappolo.Result) error {
	if res == nil {
		return fmt.Errorf("nil result")
	}
	if len(res.Membership) != g.N() {
		return fmt.Errorf("membership has %d entries for %d vertices", len(res.Membership), g.N())
	}
	k := res.NumCommunities
	if k < 1 || k > g.N() {
		return fmt.Errorf("NumCommunities = %d for %d vertices", k, g.N())
	}
	used := make([]bool, k)
	for v, c := range res.Membership {
		if c < 0 || int(c) >= k {
			return fmt.Errorf("vertex %d in community %d, outside [0, %d)", v, c, k)
		}
		used[c] = true
	}
	for c, u := range used {
		if !u {
			return fmt.Errorf("community %d of %d is empty", c, k)
		}
	}
	q := modularity(g, res.Membership, k)
	if !(math.Abs(q-res.Modularity) <= modularityTolerance) {
		return fmt.Errorf("reported modularity %.9f, membership gives %.9f", res.Modularity, q)
	}
	return nil
}

// modularity recomputes the standard modularity (resolution 1) of a dense
// membership with k communities, by the engine's definition (a self-loop
// counts once in its row and in the degree) but independently of the
// library. The library's own grappolo.Modularity cannot serve as the
// reference: it returns NaN, because core.Modularity never sets the phase
// state's total weight that its null-model term divides by.
func modularity(g *grappolo.Graph, membership []int32, k int) float64 {
	m2 := g.TotalWeight()
	if m2 == 0 {
		return 0
	}
	within := 0.0
	a := make([]float64, k)
	for i := 0; i < g.N(); i++ {
		ci := membership[i]
		nbr, w := g.Neighbors(i)
		for t, j := range nbr {
			if membership[j] == ci {
				within += w[t]
			}
		}
		a[ci] += g.Degree(i)
	}
	null := 0.0
	for _, ac := range a {
		null += (ac / m2) * (ac / m2)
	}
	return within/m2 - null
}

// hashMembership fingerprints a membership (FNV-1a over the ids) so
// responses can be compared for bit-identity without keeping them.
func hashMembership(m []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range m {
		h ^= uint64(uint32(c))
		h *= 1099511628211
	}
	return h
}
