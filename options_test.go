package grappolo_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"grappolo"
	"grappolo/internal/generate"
)

// TestOptionLiveness fails when the engine ignores a detection option. The
// equivalence tables compare run against run, so an option dropped on both
// sides passes them. Each row runs one Small input at Workers(1) with and
// without the option and names the observable the option must change.
func TestOptionLiveness(t *testing.T) {
	// shape is the membership hash, iteration count and phase count.
	shape := func(res *grappolo.Result) string {
		h := fnv.New64a()
		// Writing a fixed-size slice to a hash cannot fail.
		_ = binary.Write(h, binary.LittleEndian, res.Membership)
		return fmt.Sprintf("membership %016x, %d iterations, %d phases",
			h.Sum64(), res.TotalIterations, len(res.Phases))
	}
	// colored spells the phases' Colored flags, C colored and u not.
	colored := func(res *grappolo.Result) string {
		flags := make([]byte, len(res.Phases))
		for i, ph := range res.Phases {
			flags[i] = 'u'
			if ph.Colored {
				flags[i] = 'C'
			}
		}
		return string(flags)
	}
	color := grappolo.Coloring(grappolo.Distance1)
	cases := []struct {
		option        string
		in            generate.Input
		without, with []grappolo.Option
		observe       func(*grappolo.Result) string
	}{
		// Compressing hanging chains leaves fewer vertices to move on a
		// road network.
		{"VFChains", generate.EuropeOSM,
			[]grappolo.Option{grappolo.VertexFollowing()},
			[]grappolo.Option{grappolo.VFChains()}, shape},
		// The paper's 1e-2 colored threshold ends coloring a phase sooner
		// than the 1e-3 default.
		{"Thresholds colored", generate.RGG,
			[]grappolo.Option{color},
			[]grappolo.Option{color, grappolo.Thresholds(1e-2, 0)}, colored},
		// A final threshold of 1e-3 stops the baseline's phases sooner
		// than the 1e-6 default.
		{"Thresholds final", generate.RGG,
			nil,
			[]grappolo.Option{grappolo.Thresholds(0, 1e-3)}, shape},
	}
	ctx := context.Background()
	for _, c := range cases {
		g := generate.MustGenerate(c.in, generate.Small, 0, 1)
		var got [2]string
		for k, opts := range [][]grappolo.Option{c.without, c.with} {
			res, err := grappolo.Detect(ctx, g, append(opts, grappolo.Workers(1))...)
			if err != nil {
				t.Fatalf("%s: %v", c.option, err)
			}
			got[k] = c.observe(res)
		}
		t.Logf("%s on %s: %s → %s", c.option, c.in, got[0], got[1])
		if got[0] == got[1] {
			t.Errorf("%s on %s changed nothing (%s): the option is ignored", c.option, c.in, got[0])
		}
	}
}
