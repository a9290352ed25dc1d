package grappolo_test

import (
	"errors"
	"math"
	"slices"
	"testing"

	"grappolo"
)

// TestModularityRejectsBadInput pins the boundary checks of Modularity and
// AnalyzeCommunities: each bad input is a typed error, never a panic inside
// a worker (where no caller could recover it), an allocation sized by a
// bogus label, or a NaN score.
func TestModularityRejectsBadInput(t *testing.T) {
	g := grappolo.NewBuilder(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(1, 2, 1)
	four := g.Build(1)
	cases := []struct {
		name       string
		analyze    bool // call AnalyzeCommunities instead of Modularity
		g          *grappolo.Graph
		membership []int32
		gamma      float64
		want       error
	}{
		{"nil graph", false, nil, []int32{0, 0, 1, 1}, 1, grappolo.ErrNilGraph},
		{"short membership", false, four, []int32{0, 0, 1}, 1, grappolo.ErrInvalidInput},
		{"label out of range", false, four, []int32{0, 0, 7, 7}, 1, grappolo.ErrInvalidInput},
		{"NaN gamma", false, four, []int32{0, 0, 1, 1}, math.NaN(), grappolo.ErrInvalidInput},
		{"analyze nil graph", true, nil, []int32{0, 0, 1, 1}, 1, grappolo.ErrNilGraph},
		{"analyze short membership", true, four, []int32{0, 0, 1}, 1, grappolo.ErrInvalidInput},
		{"analyze label out of range", true, four, []int32{0, 0, 7, 7}, 1, grappolo.ErrInvalidInput},
		{"analyze label n", true, four, []int32{0, 0, 1, 4}, 1, grappolo.ErrInvalidInput},
		{"analyze negative label", true, four, []int32{0, -1, 1, 1}, 1, grappolo.ErrInvalidInput},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			var err error
			if c.analyze {
				var cs []grappolo.CommunityStats
				cs, err = grappolo.AnalyzeCommunities(c.g, c.membership, workers)
				if cs != nil {
					t.Errorf("%s (workers=%d): %d stats with an error, want none", c.name, workers, len(cs))
				}
			} else {
				var q float64
				q, err = grappolo.Modularity(c.g, c.membership, c.gamma, workers)
				if q != 0 {
					t.Errorf("%s (workers=%d): score %v with an error, want 0", c.name, workers, q)
				}
			}
			if !errors.Is(err, c.want) {
				t.Errorf("%s (workers=%d): err = %v, want %v", c.name, workers, err, c.want)
			}
			var ie *grappolo.InputError
			if errors.As(err, &ie) != errors.Is(c.want, grappolo.ErrInvalidInput) {
				t.Errorf("%s (workers=%d): err %T, want *InputError exactly for ErrInvalidInput", c.name, workers, err)
			}
		}
	}
	// Two edges of three inside communities: Q = 4/6 - 2·(3/6)² = 1/6.
	q, err := grappolo.Modularity(four, []int32{0, 0, 1, 1}, 1, 2)
	if err != nil || math.Abs(q-1.0/6) > 1e-15 {
		t.Fatalf("valid input: Q=%v err=%v, want 1/6", q, err)
	}
}

// TestCommunitySizesRejectsBadInput is TestModularityRejectsBadInput for
// CommunitySizes, which has no graph to bound its labels: a label outside
// [0, len(membership)) is an *InputError returned before the result is
// allocated, where it used to panic on a negative label and allocate 16 GiB
// for a label of 2^31−1.
func TestCommunitySizesRejectsBadInput(t *testing.T) {
	cases := []struct {
		name       string
		membership []int32
		sizes      []int
		bad        bool
	}{
		{"negative label", []int32{0, -1}, nil, true},
		{"label equal to the length", []int32{0, 2}, nil, true},
		{"label 2^31-1", []int32{0, math.MaxInt32, 1}, nil, true},
		{"valid", []int32{2, 0, 2, 2}, []int{1, 0, 3}, false},
		{"empty", nil, nil, false},
	}
	for _, c := range cases {
		sizes, err := grappolo.CommunitySizes(c.membership)
		if !c.bad {
			if err != nil || !slices.Equal(sizes, c.sizes) {
				t.Errorf("%s: sizes %v, err %v; want %v, nil", c.name, sizes, err, c.sizes)
			}
			continue
		}
		var ie *grappolo.InputError
		if sizes != nil || !errors.Is(err, grappolo.ErrInvalidInput) || !errors.As(err, &ie) || ie.Arg != "membership" {
			t.Errorf("%s: sizes %v, err %v; want nil and an *InputError on membership", c.name, sizes, err)
		}
	}
}
