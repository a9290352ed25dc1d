package grappolo_test

import (
	"errors"
	"math"
	"testing"

	"grappolo"
)

// TestModularityRejectsBadInput pins Modularity's boundary checks: each bad
// input is a typed error, never a panic inside a scoring worker (where no
// caller could recover it) or a NaN score.
func TestModularityRejectsBadInput(t *testing.T) {
	g := grappolo.NewBuilder(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(1, 2, 1)
	four := g.Build(1)
	cases := []struct {
		name       string
		g          *grappolo.Graph
		membership []int32
		gamma      float64
		want       error
	}{
		{"nil graph", nil, []int32{0, 0, 1, 1}, 1, grappolo.ErrNilGraph},
		{"short membership", four, []int32{0, 0, 1}, 1, grappolo.ErrInvalidInput},
		{"label out of range", four, []int32{0, 0, 7, 7}, 1, grappolo.ErrInvalidInput},
		{"NaN gamma", four, []int32{0, 0, 1, 1}, math.NaN(), grappolo.ErrInvalidInput},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			q, err := grappolo.Modularity(c.g, c.membership, c.gamma, workers)
			if !errors.Is(err, c.want) {
				t.Errorf("%s (workers=%d): err = %v, want %v", c.name, workers, err, c.want)
			}
			if q != 0 {
				t.Errorf("%s (workers=%d): score %v with an error, want 0", c.name, workers, q)
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
