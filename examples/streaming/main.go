// Streaming example: the paper's future-work item (i) targets "community
// detection in real-time". This example feeds a growing social network into
// a grappolo.Stream: it seeds with 60% of the edges, streams the rest in
// batches, and compares the incrementally maintained modularity (and cost)
// against re-running detection from scratch at each checkpoint with a warm
// Detector.
//
// Run with: go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"grappolo"
	"grappolo/generate"
)

// detectOpts is the full-detection configuration shared by the stream's
// re-anchoring runs and the from-scratch comparison.
func detectOpts() []grappolo.Option {
	return []grappolo.Option{
		grappolo.VertexFollowing(),
		grappolo.Coloring(grappolo.Distance1),
	}
}

func main() {
	full := generate.MustGenerate(generate.LiveJournal, generate.Medium, 0, 0)
	fmt.Printf("target graph: %d vertices, %d edges\n", full.N(), full.EdgeCount())

	// Split the edge set 60/40 deterministically.
	rng := rand.New(rand.NewSource(7))
	var initial, stream []grappolo.Edge
	for u := 0; u < full.N(); u++ {
		nbr, wts := full.Neighbors(u)
		for t, v := range nbr {
			if int32(u) > v {
				continue
			}
			e := grappolo.Edge{U: int32(u), V: v, W: wts[t]}
			if rng.Float64() < 0.6 {
				initial = append(initial, e)
			} else {
				stream = append(stream, e)
			}
		}
	}
	seed := grappolo.FromEdges(full.N(), initial, 0)

	start := time.Now()
	s, err := grappolo.NewStream(seed, detectOpts(),
		grappolo.BatchSize(2048), grappolo.RefreshFraction(0.30))
	if err != nil {
		panic(err)
	}
	fmt.Printf("seeded with %d edges: Q=%.4f (init %s)\n\n",
		len(initial), s.Modularity(), time.Since(start).Round(time.Millisecond))

	// One warm Detector answers every from-scratch comparison; its engine
	// scratch is recycled across checkpoints.
	scratchDet, err := grappolo.New(detectOpts()...)
	if err != nil {
		panic(err)
	}
	ctx := context.Background()

	fmt.Printf("%10s %12s %12s %12s %10s %8s\n",
		"streamed", "incr Q", "scratch Q", "incr t", "scratch t", "fulls")
	checkpoints := 4
	chunk := (len(stream) + checkpoints - 1) / checkpoints
	streamed := 0
	for c := 0; c < checkpoints; c++ {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > len(stream) {
			hi = len(stream)
		}
		t0 := time.Now()
		for _, e := range stream[lo:hi] {
			if err := s.AddEdge(e.U, e.V, e.W); err != nil {
				panic(err)
			}
		}
		s.Flush()
		incrT := time.Since(t0)
		streamed += hi - lo

		// Scratch comparison on the same snapshot.
		t0 = time.Now()
		snap := s.Snapshot()
		scratch, err := scratchDet.Detect(ctx, snap)
		if err != nil {
			panic(err)
		}
		scratchT := time.Since(t0)

		fmt.Printf("%10d %12.4f %12.4f %12s %10s %8d\n",
			streamed, s.Modularity(), scratch.Modularity,
			incrT.Round(time.Millisecond), scratchT.Round(time.Millisecond),
			s.FullRuns())
	}
}
