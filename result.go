package grappolo

import (
	"fmt"
	"math"

	"grappolo/internal/core"
)

// Result is the output of a detection run: the dense community membership
// of every input vertex, the modularity (or CPM score) achieved, and full
// per-phase instrumentation. See the fields of the aliased internal type;
// the alias keeps the public surface and the engine's zero-copy result
// recycling (DetectInto) one and the same type.
//
// Two serving-layer provenance flags ride on it: Degraded marks a result
// served by a Guard's degraded fast profile, and Incremental marks one
// produced by a Cache routing an edge delta onto the incremental
// maintainer instead of a cold engine run. Both are always false on
// results from a Detector, Pool or Sharded directly.
type Result = core.Result

// PhaseStats traces one phase of a run: convergence trajectory, per-step
// timings, and coloring statistics.
type PhaseStats = core.PhaseStats

// Breakdown aggregates wall-clock time per algorithm step (vertex
// following, coloring, clustering, rebuild).
type Breakdown = core.Breakdown

// CommunityStats summarizes one detected community: size, internal and cut
// weight, conductance, and local modularity contribution.
type CommunityStats = core.CommunityStats

// Modularity computes standard modularity (Eq. 3 of the paper, with
// resolution gamma; pass 1 for the standard definition, and a non-positive
// gamma selects 1) for an arbitrary assignment on g — use it to score
// external partitions (e.g. ground truth) with the same parallel kernel the
// detector uses. workers <= 0 selects all CPUs.
//
// The input is checked before any worker starts: a nil g returns
// ErrNilGraph, and a membership whose length is not g.N(), a label outside
// [0, g.N()) or a gamma that is not a finite number returns an *InputError
// (errors.Is(err, ErrInvalidInput)).
func Modularity(g *Graph, membership []int32, gamma float64, workers int) (float64, error) {
	if err := checkMembership(g, membership); err != nil {
		return 0, err
	}
	if math.IsNaN(gamma) || math.IsInf(gamma, 0) {
		return 0, &InputError{Arg: "gamma", Reason: fmt.Sprintf("%v is not a finite number", gamma)}
	}
	return core.Modularity(g, membership, gamma, workers), nil
}

// AnalyzeCommunities computes per-community statistics for a membership on
// g, sorted by decreasing size. workers <= 0 selects all CPUs. The input is
// checked as Modularity checks it, before anything is allocated: a nil g
// returns ErrNilGraph, and a membership that does not give each vertex one
// label in [0, g.N()) returns an *InputError.
func AnalyzeCommunities(g *Graph, membership []int32, workers int) ([]CommunityStats, error) {
	if err := checkMembership(g, membership); err != nil {
		return nil, err
	}
	return core.AnalyzeCommunities(g, membership, workers)
}

// checkMembership returns ErrNilGraph for a nil g, and an *InputError when
// membership does not give each of g's vertices one label in [0, g.N()).
func checkMembership(g *Graph, membership []int32) error {
	if g == nil {
		return ErrNilGraph
	}
	if n := g.N(); len(membership) != n {
		return &InputError{Arg: "membership", Reason: fmt.Sprintf("length %d, graph has %d vertices", len(membership), n)}
	}
	return checkLabels(membership)
}

// checkLabels returns an *InputError when a label of membership lies outside
// [0, len(membership)).
func checkLabels(membership []int32) error {
	n := len(membership)
	for v, c := range membership {
		if c < 0 || int(c) >= n {
			return &InputError{Arg: "membership", Reason: fmt.Sprintf("vertex %d has label %d outside [0, %d)", v, c, n)}
		}
	}
	return nil
}

// CommunitySizes returns the size of each community of a membership,
// indexed by community id: length max label + 1, labels absent from the
// membership count 0, and nil for an empty membership. Labels must lie in
// [0, len(membership)), as every detection's output does; any other label
// returns an *InputError before anything is allocated.
func CommunitySizes(membership []int32) ([]int, error) {
	if err := checkLabels(membership); err != nil {
		return nil, err
	}
	return core.CommunitySizes(membership), nil
}
