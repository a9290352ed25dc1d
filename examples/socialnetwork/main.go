// Social-network example: reproduces the paper's Soc-LiveJournal1 workload
// shape (hub-skewed social graph, moderate community structure) at medium
// scale, sweeps worker counts with the headline variant to show the scaling
// behaviour of Figs. 3–7 with the runtime breakdown of Fig. 8, then serves
// the same graph from a grappolo.Pool — many concurrent single-worker
// detections — the way a clustering service would, comparing request
// throughput against back-to-back detection. (The serial Louvain reference
// of Table 2 is available via `go run ./cmd/grappolo -serial`.)
//
// Run with: go run ./examples/socialnetwork
package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"grappolo"
	"grappolo/generate"
)

func main() {
	g := generate.MustGenerate(generate.LiveJournal, generate.Medium, 0, 0)
	fmt.Printf("social graph: %s\n", grappolo.ComputeGraphStats(g))
	ctx := context.Background()

	// Thread sweep with baseline+VF+Color: one big detection, more workers.
	maxW := runtime.GOMAXPROCS(0)
	fmt.Printf("\n%8s %10s %12s %9s %12s %12s\n",
		"workers", "Q", "time", "rel", "clustering", "rebuild")
	var ref time.Duration
	for w := 1; w <= maxW; w *= 2 {
		det, err := grappolo.New(
			grappolo.Workers(w),
			grappolo.VertexFollowing(),
			grappolo.Coloring(grappolo.Distance1),
		)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		res, err := det.Detect(ctx, g)
		if err != nil {
			panic(err)
		}
		elapsed := time.Since(start)
		if w == 1 {
			ref = elapsed
		}
		fmt.Printf("%8d %10.4f %12s %8.2fx %12s %12s\n",
			w, res.Modularity, elapsed.Round(time.Millisecond),
			float64(ref)/float64(elapsed),
			res.Timing.Clustering.Round(time.Millisecond),
			res.Timing.Rebuild.Round(time.Millisecond))
	}

	// Serving mode: the other way to spend the same cores is request-level
	// parallelism — a bounded pool of single-worker engines answering many
	// detection requests concurrently, warm engines recycled back to back.
	const requests = 16
	pool, err := grappolo.NewPool(maxW, grappolo.Workers(1),
		grappolo.VertexFollowing(),
		grappolo.Coloring(grappolo.Distance1))
	if err != nil {
		panic(err)
	}
	warm, err := pool.Detect(ctx, g) // warm one engine, check quality once
	if err != nil {
		panic(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < requests; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.Detect(ctx, g); err != nil {
				panic(err)
			}
		}()
	}
	wg.Wait()
	concT := time.Since(start)
	fmt.Printf("\n%s serving %d requests: Q=%.4f total=%s (%.1f req/s, vs %s/run single-stream)\n",
		pool, requests, warm.Modularity, concT.Round(time.Millisecond),
		float64(requests)/concT.Seconds(), ref.Round(time.Millisecond))
}
