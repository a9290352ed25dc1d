package grappolo

import (
	"fmt"
	"math"

	"grappolo/internal/seq"
)

// SerialResult is the outcome of DetectSerial: the serial Louvain
// reference's partitioning and its convergence counters (the quantities the
// paper reports for the sequential baseline in Tables 4–5).
type SerialResult struct {
	// Membership assigns every original vertex a dense community id.
	Membership []int32
	// NumCommunities is the number of distinct ids in Membership.
	NumCommunities int
	// Modularity of the final partitioning on the input graph.
	Modularity float64
	// Iterations is the total local-move iteration count across phases.
	Iterations int
	// Phases is the number of coarsening phases the run performed.
	Phases int
}

// DetectSerial runs the SERIAL Louvain reference implementation the paper
// compares its parallel heuristics against — single-threaded, natural scan
// order, standard modularity. It exists for baselining and verification
// (cmd/grappolo's -serial and -compare modes); production callers want a
// Detector, Pool or Guard. threshold is the minimum net modularity gain
// required to continue (<= 0 selects the paper's default 1e-6). A nil graph
// returns ErrNilGraph like every other detection entry point, and a graph
// whose total edge weight is not finite, or a threshold that is not a
// finite number, returns an *InputError.
func DetectSerial(g *Graph, threshold float64) (*SerialResult, error) {
	if err := checkGraph(g); err != nil {
		return nil, err
	}
	if math.IsNaN(threshold) || math.IsInf(threshold, 0) {
		return nil, &InputError{Arg: "threshold", Reason: fmt.Sprintf("%v is not a finite number", threshold)}
	}
	res := seq.Run(g, seq.Options{Threshold: threshold})
	return &SerialResult{
		Membership:     res.Membership,
		NumCommunities: res.NumCommunities,
		Modularity:     res.Modularity,
		Iterations:     res.TotalIterations,
		Phases:         len(res.Phases),
	}, nil
}
