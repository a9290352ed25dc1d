package core

import (
	"fmt"
	"testing"

	"grappolo/internal/generate"
)

// Golden regression values for the DETERMINISTIC configurations: uncolored
// variants are bit-stable for any worker count, and colored, CPM and async
// (PLM) runs are at Workers 1; the graph builder is bit-deterministic too.
// If an intentional algorithm change shifts these, re-derive them with
// `go test -run Golden -v` and update — any unintentional shift is a
// regression.
func TestGoldenDeterministicRuns(t *testing.T) {
	type golden struct {
		in      generate.Input
		variant string
		nc      int
		qPrefix string // Q (the CPM score under CPM) truncated to 6 decimals
		iters   int    // TotalIterations
	}
	cases := []golden{
		{generate.CNR, "baseline", 19, "0.871702", 17},
		{generate.CNR, "vf", 19, "0.871702", 17},
		{generate.EuropeOSM, "baseline", 32, "0.927783", 22},
		{generate.EuropeOSM, "vf", 34, "0.925659", 19},
		{generate.MG1, "baseline", 20, "0.936237", 14},
		{generate.LiveJournal, "baseline", 24, "0.832207", 13},
		{generate.CNR, "vfcolor", 23, "0.872566", 8},
		{generate.LiveJournal, "vfcolor", 25, "0.832210", 11},
		{generate.EuropeOSM, "cpm-color", 428, "0.562399", 8},
		{generate.MG1, "cpm-color", 20, "0.772015", 8},
		{generate.CNR, "plm", 23, "0.872566", 8},
		{generate.MG1, "plm", 20, "0.936237", 6},
	}
	for _, c := range cases {
		g := generate.MustGenerate(c.in, generate.Small, 0, 4)
		var o Options
		switch c.variant {
		case "baseline":
			o = smallOpts(4)
		case "vf":
			o = withVF(smallOpts(4))
		case "vfcolor":
			o = withColor(withVF(smallOpts(1)))
		case "cpm-color":
			o = withColor(smallOpts(1))
			o.Objective, o.CPMGamma = ObjCPM, 0.1
		case "plm":
			o = PLM(1)
		}
		res := Run(g, o)
		got := fmt.Sprintf("%.6f", res.Modularity)
		if res.NumCommunities != c.nc || got != c.qPrefix || res.TotalIterations != c.iters {
			t.Errorf("%s/%s: got nc=%d Q=%s iters=%d, golden nc=%d Q=%s iters=%d",
				c.in, c.variant, res.NumCommunities, got, res.TotalIterations, c.nc, c.qPrefix, c.iters)
		}
	}
}
