// Command grappolo runs parallel Louvain community detection on a graph
// loaded from a file or generated from the synthetic input suite, and
// prints the result summary (and optionally the membership). The parallel
// path goes through the public grappolo API (New → Detect); the -serial
// flag runs the sequential Louvain reference the paper compares against.
//
// Usage:
//
//	grappolo -file graph.txt -variant vfcolor -workers 8
//	grappolo -input rgg -scale medium -variant baseline -stats
//	grappolo -file g.txt -serial            # serial Louvain reference
//	grappolo -file g.txt -out membership.txt
//	grappolo -input rgg -serve -clients 16  # serving-shell demo (Pool)
//	grappolo -input rgg -serve -cache -maxqueue 8 -deadline 2s -degrade 4
//	                                        # …cached and guarded: shedding,
//	                                        #   deadline budget, degraded
//	                                        #   fast profile
//	grappolo -input rgg -serve -shards 4 -exchange 2
//	                                        # …sharded: ghost-label-exchange
//	                                        #   partitioned detection
//	grappolo -input rgg -serve -cache -cachettl 1m
//	                                        # …cached: concurrent duplicates
//	                                        #   coalesced onto one run,
//	                                        #   repeats served with zero
//	                                        #   engine runs
//	grappolo -input rgg -serve -cache -delta 64
//	                                        # …with near-identical re-uploads
//	                                        #   routed onto the incremental
//	                                        #   maintainer
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"grappolo"
	"grappolo/generate"
	"grappolo/quality"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "grappolo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("grappolo", flag.ContinueOnError)
	var (
		file      = fs.String("file", "", "graph file (edge list, .graph/.metis, or .bin)")
		input     = fs.String("input", "", "synthetic input name (cnr, copapers, channel, europe, livejournal, mg1, rgg, uk, nlpkkt, mg2, friendster)")
		scale     = fs.String("scale", "small", "synthetic scale: small | medium | large")
		seed      = fs.Uint64("seed", 0, "synthetic generator seed")
		variant   = fs.String("variant", "vfcolor", "parallel variant: baseline | vf | vfcolor")
		serial    = fs.Bool("serial", false, "run the serial Louvain reference instead")
		workers   = fs.Int("workers", 0, "worker count (0 = all CPUs)")
		threshold = fs.Float64("threshold", 0, "final modularity-gain threshold (0 = default 1e-6)")
		cutoff    = fs.Int("color-cutoff", 0, "coloring vertex cutoff (0 = no cutoff)")
		balance   = fs.String("balance", "off", "color-set rebalancing: off | vertex | arc | auto (§6.2 balanced coloring; auto applies arc mode only when the measured arc-load skew warrants it)")
		objective = fs.String("objective", "modularity", "quality function: modularity | cpm")
		cpmGamma  = fs.Float64("cpm-gamma", 0.5, "CPM resolution parameter (with -objective cpm)")
		stats     = fs.Bool("stats", false, "print input degree statistics (Table 1 row)")
		out       = fs.String("out", "", "write 'vertex community' membership lines to this file")
		hierarchy = fs.Bool("hierarchy", false, "print the community hierarchy (communities per dendrogram level)")
		compare   = fs.Bool("compare", false, "also run the serial reference and print Table 3-style agreement measures")
		top       = fs.Int("top", 0, "print per-community stats for the N largest communities")
		quiet     = fs.Bool("q", false, "suppress per-phase trace")
		serve     = fs.Bool("serve", false, "serving-shell demo: answer -requests concurrent duplicate detections from -clients goroutines through a Pool")
		clients   = fs.Int("clients", 8, "with -serve: concurrent requester goroutines")
		requests  = fs.Int("requests", 64, "with -serve: total requests across all clients")
		maxqueue  = fs.Int("maxqueue", -1, "with -serve: guard the stack, shedding requests that would queue deeper than this (-1 = unbounded)")
		deadline  = fs.Duration("deadline", 0, "with -serve: guard the stack with this default per-request detection deadline (0 = none)")
		degrade   = fs.Int("degrade", 0, "with -serve: guard the stack, serving requests queued at this depth or beyond with the degraded fast profile (0 = off)")
		shards    = fs.Int("shards", 0, "with -serve: serve through the Sharded tier, partitioning the graph into this many shards with ghost-label exchange (0 = off)")
		exchange  = fs.Int("exchange", 2, "with -serve -shards: ghost-label exchange rounds between shard sweeps")
		cacheOn   = fs.Bool("cache", false, "with -serve: put a result Cache in front of the backend (concurrent duplicates share one engine run; repeated identical graphs are served with zero engine runs)")
		cachettl  = fs.Duration("cachettl", 0, "with -serve -cache: entry time-to-live (0 = until evicted)")
		cacheByt  = fs.Int64("cachebytes", 0, "with -serve -cache: resident byte budget for cached graphs+results (0 = default 256 MiB)")
		delta     = fs.Int("delta", 0, "with -serve -cache: edge-edit budget for routing near-identical re-uploads onto the incremental maintainer instead of a cold run (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Both paths below would misread a non-finite threshold: the serial
	// reference would never meet it, the parallel path would drop it.
	if math.IsNaN(*threshold) || math.IsInf(*threshold, 0) {
		return fmt.Errorf("-threshold %v is not a finite number", *threshold)
	}
	// 0 selects the default; a negative value would be dropped silently.
	if *threshold < 0 {
		return fmt.Errorf("-threshold %v is negative (0 = default)", *threshold)
	}
	if *cutoff < 0 {
		return fmt.Errorf("-color-cutoff %d is negative (0 = no cutoff)", *cutoff)
	}

	g, err := loadGraph(*file, *input, *scale, *seed, *workers)
	if err != nil {
		return err
	}
	if *stats {
		fmt.Println(grappolo.ComputeGraphStats(g))
	}
	if *deadline < 0 || *degrade < 0 || *maxqueue < -1 {
		return fmt.Errorf("invalid guard flag (-maxqueue >= -1, -deadline >= 0, -degrade >= 0)")
	}
	if *shards < 0 || *exchange < 0 {
		return fmt.Errorf("invalid sharding flag (-shards >= 0, -exchange >= 0)")
	}
	if *cachettl < 0 || *cacheByt < 0 || *delta < 0 {
		return fmt.Errorf("invalid cache flag (-cachettl >= 0, -cachebytes >= 0, -delta >= 0)")
	}
	if !*cacheOn && (*cachettl > 0 || *cacheByt > 0 || *delta > 0) {
		return fmt.Errorf("-cachettl, -cachebytes and -delta require -cache")
	}
	if *serve {
		return serveDemo(g, *workers, *clients, *requests, *quiet,
			*maxqueue, *deadline, *degrade, *shards, *exchange,
			*cacheOn, *cachettl, *cacheByt, *delta)
	}
	if *maxqueue >= 0 || *deadline > 0 || *degrade > 0 {
		return fmt.Errorf("-maxqueue, -deadline and -degrade require -serve")
	}
	if *shards > 0 {
		return fmt.Errorf("-shards requires -serve")
	}
	if *cacheOn {
		return fmt.Errorf("-cache requires -serve")
	}

	var membership []int32
	start := time.Now()
	if *serial {
		res, err := grappolo.DetectSerial(g, *threshold)
		if err != nil {
			return err
		}
		membership = res.Membership
		fmt.Printf("serial louvain: n=%d communities=%d Q=%.6f iterations=%d phases=%d time=%s\n",
			g.N(), res.NumCommunities, res.Modularity, res.Iterations,
			res.Phases, time.Since(start).Round(time.Millisecond))
	} else {
		opts, err := variantOptions(*variant, *workers)
		if err != nil {
			return err
		}
		if *objective == "cpm" {
			// CPM is incompatible with VF (Lemma 3 is a modularity result).
			// vfcolor falls back to coloring alone; vf without VF would be
			// the baseline under another name.
			if *variant == "vf" {
				return fmt.Errorf("-variant vf needs vertex following, which -objective cpm does not allow (Lemma 3 is a modularity result); use -variant baseline")
			}
			opts = []grappolo.Option{grappolo.Workers(*workers)}
			if *variant == "vfcolor" {
				opts = append(opts, grappolo.Coloring(grappolo.Distance1))
			}
		}
		if *threshold > 0 {
			opts = append(opts, grappolo.Thresholds(0, *threshold))
		}
		if *cutoff > 0 {
			opts = append(opts, grappolo.ColoringCutoff(*cutoff))
		}
		switch *balance {
		case "off":
			opts = append(opts, grappolo.Balance(grappolo.BalanceOff))
		case "vertex":
			opts = append(opts, grappolo.Balance(grappolo.BalanceVertices))
		case "arc":
			opts = append(opts, grappolo.Balance(grappolo.BalanceArcs))
		case "auto":
			opts = append(opts, grappolo.Balance(grappolo.BalanceAuto))
		default:
			return fmt.Errorf("unknown balance mode %q (off|vertex|arc|auto)", *balance)
		}
		if *hierarchy {
			opts = append(opts, grappolo.KeepHierarchy())
		}
		switch *objective {
		case "modularity":
		case "cpm":
			opts = append(opts, grappolo.CPM(*cpmGamma))
		default:
			return fmt.Errorf("unknown objective %q (modularity|cpm)", *objective)
		}
		det, err := grappolo.New(opts...)
		if err != nil {
			return err
		}
		res, err := det.Detect(context.Background(), g)
		if err != nil {
			return err
		}
		membership = res.Membership
		fmt.Printf("grappolo (%s): n=%d communities=%d Q=%.6f iterations=%d phases=%d time=%s\n",
			*variant, g.N(), res.NumCommunities, res.Modularity, res.TotalIterations,
			len(res.Phases), time.Since(start).Round(time.Millisecond))
		if !*quiet {
			for i, ph := range res.Phases {
				endQ := 0.0
				if len(ph.Modularity) > 0 {
					endQ = ph.Modularity[len(ph.Modularity)-1]
				}
				colorCols := ""
				if ph.Colored {
					colorCols = fmt.Sprintf(" colors=%d rsd=%.3f arcrsd=%.3f",
						ph.NumColors, ph.ColorSetRSD, ph.ColorArcRSD)
				}
				fmt.Printf("  phase %d: n=%d iters=%d colored=%v%s Q=%.6f cluster=%s rebuild=%s\n",
					i+1, ph.VertexCount, ph.Iterations, ph.Colored, colorCols, endQ,
					ph.ClusterTime.Round(time.Microsecond), ph.RebuildTime.Round(time.Microsecond))
			}
			b := res.Timing
			fmt.Printf("  breakdown: vf=%s coloring=%s clustering=%s rebuild=%s\n",
				b.VF.Round(time.Microsecond), b.Coloring.Round(time.Microsecond),
				b.Clustering.Round(time.Microsecond), b.Rebuild.Round(time.Microsecond))
		}
		if *hierarchy {
			for l, level := range res.Levels {
				distinct := map[int32]bool{}
				for _, c := range level {
					distinct[c] = true
				}
				fmt.Printf("  level %d: %d communities\n", l+1, len(distinct))
			}
		}
		if *top > 0 {
			cs, err := grappolo.AnalyzeCommunities(g, res.Membership, *workers)
			if err != nil {
				return err
			}
			if *top < len(cs) {
				cs = cs[:*top]
			}
			fmt.Printf("  %8s %8s %12s %12s %12s %10s\n",
				"comm", "size", "intra-w", "cut-w", "conduct", "localQ")
			for _, c := range cs {
				fmt.Printf("  %8d %8d %12.2f %12.2f %12.4f %10.4f\n",
					c.ID, c.Size, c.IntraWeight, c.CutWeight, c.Conductance, c.LocalQ)
			}
		}
	}

	if *compare && !*serial {
		sres, err := grappolo.DetectSerial(g, 0)
		if err != nil {
			return err
		}
		pc, err := quality.ComparePartitions(sres.Membership, membership)
		if err != nil {
			return err
		}
		nmi, err := quality.NMI(sres.Membership, membership)
		if err != nil {
			return err
		}
		fmt.Printf("vs serial (Q=%.6f): %s NMI=%.2f%%\n",
			sres.Modularity, pc.Derive(), 100*nmi)
	}

	if *out != "" {
		if err := writeMembership(*out, membership); err != nil {
			return err
		}
		fmt.Printf("membership written to %s\n", *out)
	}
	return nil
}

// serveDemo exercises the serving shell the way a clustering service would:
// a fixed client fleet hammers the same resident graph — the duplicate-load
// shape the cache exists for — and the counters show the win (requests
// answered vs engine runs actually performed). Any of the guard flags
// (-maxqueue, -deadline, -degrade) wraps the stack in a Guard: shed
// requests (ErrOverloaded) then count as back-pressure, not failures,
// and requests admitted under queue pressure may be answered by the
// degraded fast profile (marked in the stats line). -shards swaps the
// backend for the Sharded tier: every request is answered by a partitioned
// ghost-label-exchange detection whose shard sweeps draw engines from the
// same pool. -cache fronts the stack with a result cache: under this demo's
// duplicate load, requests that overlap the first run coalesce onto it, and
// every later request is an exact hit served with zero engine runs.
func serveDemo(g *grappolo.Graph, workers int, clients, requests int, quiet bool,
	maxqueue int, deadline time.Duration, degrade, shards, exchange int,
	cacheOn bool, cachettl time.Duration, cacheBytes int64, delta int) error {
	if clients < 1 || requests < 1 {
		return fmt.Errorf("-serve needs positive -clients and -requests")
	}
	pool, err := grappolo.NewPool(0, grappolo.Workers(workers))
	if err != nil {
		return err
	}
	detect := pool.DetectInto
	mode := "pool"
	var backend grappolo.Detecter = pool
	if shards > 0 {
		sharded, err := grappolo.NewSharded(pool,
			grappolo.WithShards(shards), grappolo.WithExchangeRounds(exchange))
		if err != nil {
			return err
		}
		backend = sharded
		detect = sharded.DetectInto
		mode = fmt.Sprintf("pool+sharded(%d×%d)", shards, exchange)
	}
	var cache *grappolo.Cache
	if cacheOn {
		var copts []grappolo.CacheOption
		if cachettl > 0 {
			copts = append(copts, grappolo.CacheTTL(cachettl))
		}
		if cacheBytes > 0 {
			copts = append(copts, grappolo.CacheBytes(cacheBytes))
		}
		if delta > 0 {
			copts = append(copts, grappolo.DeltaEdits(delta))
		}
		if cache, err = grappolo.NewCache(backend, copts...); err != nil {
			return err
		}
		backend = cache
		detect = cache.DetectInto
		mode += "+cache"
	}
	var guard *grappolo.Guard
	if maxqueue >= 0 || deadline > 0 || degrade > 0 {
		var gopts []grappolo.GuardOption
		if maxqueue >= 0 {
			gopts = append(gopts, grappolo.MaxQueueDepth(maxqueue))
		}
		if deadline > 0 {
			gopts = append(gopts, grappolo.DetectDeadline(deadline))
		}
		if degrade > 0 {
			gopts = append(gopts, grappolo.DegradeAtDepth(degrade))
		}
		if cache != nil {
			// Admit more requests than engines so hits and coalescing
			// followers (which consume no engine permit) pass through.
			gopts = append(gopts, grappolo.MaxInFlight(4*pool.Size()))
		}
		if guard, err = grappolo.NewGuard(backend, gopts...); err != nil {
			return err
		}
		detect = guard.DetectInto
		mode += "+guard"
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	var failures atomic.Int64
	var firstErr atomic.Value
	start := time.Now()
	for c := 0; c < clients; c++ {
		n := requests / clients
		if c < requests%clients {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			var res *grappolo.Result
			var err error
			for r := 0; r < n; r++ {
				res, err = detect(ctx, g, res)
				if errors.Is(err, grappolo.ErrOverloaded) {
					// Back-pressure working as configured, not a failure;
					// GuardStats.Shed counts these.
					res = nil
					continue
				}
				if err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if failures.Load() > 0 {
		return fmt.Errorf("%d requests failed (first: %v)", failures.Load(), firstErr.Load())
	}
	st := pool.Stats()
	var gst grappolo.GuardStats
	if guard != nil {
		gst = guard.Stats()
		st = gst.PoolStats
	}
	var cst grappolo.CacheStats
	if cache != nil {
		cst = cache.Stats()
	}
	fmt.Printf("serve (%s): %d requests, %d clients, %d engines: %s (%.1f req/s)\n",
		mode, requests, clients, pool.Size(),
		elapsed.Round(time.Millisecond), float64(requests)/elapsed.Seconds())
	if !quiet {
		fmt.Printf("  engine runs=%d coalesced=%d queued=%d canceled=%d\n",
			st.Led, cst.Coalesced, st.Waited, st.Canceled)
		if cache != nil {
			fmt.Printf("  cache: hits=%d misses=%d delta=%d evicted=%d expired=%d entries=%d bytes=%d\n",
				cst.Hits, cst.Misses, cst.DeltaRouted, cst.Evictions,
				cst.Expired, cst.Entries, cst.Bytes)
		}
		if guard != nil {
			fmt.Printf("  guard: shed=%d degraded=%d recovered=%d\n",
				gst.Shed, gst.Degraded, gst.Recovered)
		}
	}
	return nil
}

func loadGraph(file, input, scale string, seed uint64, workers int) (*grappolo.Graph, error) {
	switch {
	case file != "" && input != "":
		return nil, fmt.Errorf("use either -file or -input, not both")
	case file != "":
		return grappolo.LoadGraph(file, workers)
	case input != "":
		sc, err := parseScale(scale)
		if err != nil {
			return nil, err
		}
		return generate.Generate(generate.Input(input), sc, seed, workers)
	default:
		return nil, fmt.Errorf("need -file or -input (see -h)")
	}
}

func parseScale(s string) (generate.Scale, error) {
	switch s {
	case "small":
		return generate.Small, nil
	case "medium":
		return generate.Medium, nil
	case "large":
		return generate.Large, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (small|medium|large)", s)
	}
}

func variantOptions(v string, workers int) ([]grappolo.Option, error) {
	base := []grappolo.Option{grappolo.Workers(workers)}
	switch v {
	case "baseline":
		return base, nil
	case "vf":
		return append(base, grappolo.VertexFollowing()), nil
	case "vfcolor":
		return append(base, grappolo.VertexFollowing(), grappolo.Coloring(grappolo.Distance1)), nil
	default:
		return nil, fmt.Errorf("unknown variant %q (baseline|vf|vfcolor)", v)
	}
}

func writeMembership(path string, membership []int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for v, c := range membership {
		if _, err := fmt.Fprintf(w, "%d %d\n", v, c); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
