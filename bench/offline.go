package main

import (
	"fmt"
	"time"

	"grappolo"
	"grappolo/generate"
)

// offlineSpec describes one offline workload: a fixed set of paper analogs
// detected pass after pass with Workers(nproc).
type offlineSpec struct {
	inputs []generate.Input
	// opts is the engine configuration; a worker count is added to it.
	opts         []grappolo.Option
	vf, coloring bool // which preprocessing steps opts enable
	// permute relabels vertex ids randomly, so shards cut real communities.
	permute bool
	// sharded detects through NewSharded over a Pool instead of a Detector.
	sharded bool
	// deterministic requires identical membership, Q and iterations on
	// every pass.
	deterministic bool
}

// shardInputs are the shard-suite graphs: one of each community-bearing
// shape, leaving out the two meshes and the shapes that repeat another.
var shardInputs = []generate.Input{
	generate.RGG, generate.MG2, generate.EuropeOSM, generate.LiveJournal, generate.CNR, generate.UK2002,
}

// Shard configuration of shard-suite.
const (
	shardCount  = 4
	shardRounds = 2
)

func runSuiteColored(r *run) error {
	return runOffline(r, offlineSpec{
		inputs: generate.Suite(),
		opts:   []grappolo.Option{grappolo.VertexFollowing(), grappolo.Coloring(grappolo.Distance1)},
		vf:     true, coloring: true,
	})
}

func runSuiteBaseline(r *run) error {
	return runOffline(r, offlineSpec{inputs: generate.Suite(), deterministic: true})
}

func runShardSuite(r *run) error {
	return runOffline(r, offlineSpec{inputs: shardInputs, permute: true, sharded: true})
}

// withWorkers returns opts plus Workers(n), leaving opts untouched.
func withWorkers(opts []grappolo.Option, n int) []grappolo.Option {
	return append(append([]grappolo.Option{}, opts...), grappolo.Workers(n))
}

// newSharded builds shard-suite's tier, with the given exchange rounds,
// over a fresh pool of nproc engines.
func (s offlineSpec) newSharded(nproc, rounds int) (*grappolo.Sharded, *grappolo.Pool, error) {
	pool, err := grappolo.NewPool(nproc, withWorkers(s.opts, nproc)...)
	if err != nil {
		return nil, nil, err
	}
	sh, err := grappolo.NewSharded(pool, grappolo.WithShards(shardCount),
		grappolo.WithExchangeRounds(rounds), grappolo.WithPartition(grappolo.PartitionArcs))
	return sh, pool, err
}

func runOffline(r *run, spec offlineSpec) error {
	rng := newRand(r.cfg.seed, 1)
	relabel := newRand(0, 1) // the same relabeling under every seed, like the graphs
	t0 := time.Now()
	var lists []edgeList
	var labels []string
	for _, in := range spec.inputs {
		l, err := generateList(in, r.cfg.suiteScale(), 0, r.nproc)
		if err != nil {
			return err
		}
		if spec.permute {
			l = permuted(l, relabel)
		}
		lists, labels = append(lists, l), append(labels, l.name)
	}
	r.logf("inputs generated in %.1fs", time.Since(t0).Seconds())

	var graphs []*grappolo.Graph
	var det grappolo.Detecter
	var pool *grappolo.Pool
	var buildS float64
	release := func() { graphs, det, pool = nil, nil, nil }
	err := r.setup(release, func() error {
		graphs, buildS = buildGraphs(lists, r.nproc)
		if spec.sharded {
			sh, p, err := spec.newSharded(r.nproc, shardRounds)
			det, pool = sh, p
			return err
		}
		d, err := grappolo.New(withWorkers(spec.opts, r.nproc)...)
		det = d
		return err
	})
	if err != nil {
		return err
	}
	lists = nil
	r.setLayer("graph.build_s", buildS)

	// Timed window: whole passes over the graphs, each in a seeded order,
	// until the window is used up. A call records only its latency, Q and
	// error (plus, where output must repeat, a membership hash taken outside
	// the timed interval). The host clock samples after every call.
	n := len(graphs)
	res := make([]*grappolo.Result, n)
	qs := make([][]float64, n)
	hashes := make([][]uint64, n)
	iters := make([][]int, n)
	var rounds []round
	before := counters(pool)
	start := time.Now()
	for pass := 0; !r.timedOut(start, pass); pass++ {
		if pass == 1 {
			// The first pass grows the engines' scratch, in an order the
			// seed picks, and allocates every Result. The peak resident
			// set is taken over the passes that find them in place, as a
			// long-lived detector would.
			r.startWindow()
		}
		rd := round{calls: make([]call, 0, n)}
		for _, i := range rng.Perm(n) {
			t := time.Now()
			out, err := det.DetectInto(r.ctx, graphs[i], res[i])
			c := call{graph: i, lat: time.Since(t), err: err}
			if err == nil {
				res[i], c.q = out, out.Modularity
				qs[i] = append(qs[i], out.Modularity)
				if spec.deterministic {
					hashes[i] = append(hashes[i], hashMembership(out.Membership))
					iters[i] = append(iters[i], out.TotalIterations)
				}
			}
			rd.calls = append(rd.calls, c)
			rd.wall += c.lat
			r.host.sample()
		}
		rounds = append(rounds, rd)
	}
	after := counters(pool)
	r.windowMetrics(rounds, func(i int) string { return labels[i] })
	suiteS := r.e2e["suite_s"]

	// Offline calls pass through no cache or guard. A Detector call is one
	// engine run; a Sharded call is one per shard sweep plus the merge.
	r.setLayer("cache.hit_ratio", 0)
	r.setLayer("cache.delta_routed_share", 0)
	r.setLayer("cache.evictions_per_request", 0)
	r.setLayer("pool.engine_runs_per_request", 1)
	for _, m := range []string{"cache.hit_us_p50", "cache.delta_ms_p50", "cache.miss_overhead_ms",
		"cache.delta_q_ratio_min", "pool.overhead_ms", "guard.overhead_us", "guard.shed_share"} {
		r.absentLayer(m, "offline workload: no Cache or Guard in the path")
	}
	if spec.sharded {
		r.poolShares(before, after, float64(r.attempted))
	} else {
		r.absentLayer("pool.waited_share", "offline workload: no Pool in the path")
	}

	// Untimed verification.
	for i, g := range graphs {
		if res[i] != nil {
			err := resultError(g, res[i])
			r.chk.check("membership dense, modularity reproduces", err == nil, "%s: %v", labels[i], err)
		}
	}
	if spec.deterministic {
		for i := range graphs {
			for p := range hashes[i] {
				same := hashes[i][p] == hashes[i][0] && qs[i][p] == qs[i][0] && iters[i][p] == iters[i][0]
				r.chk.check("output identical across passes", same,
					"%s pass %d: Q %.9f iters %d, pass 0: Q %.9f iters %d",
					labels[i], p, qs[i][p], iters[i][p], qs[i][0], iters[i][0])
			}
		}
	}
	if spec.sharded {
		return r.verifyShard(spec, graphs, labels, det, qs, suiteS)
	}
	var serialS []float64
	for i, g := range graphs {
		t := time.Now()
		sr, err := grappolo.DetectSerial(g, 0)
		serialS = append(serialS, time.Since(t).Seconds())
		if err != nil {
			return fmt.Errorf("serial reference on %s: %w", labels[i], err)
		}
		for _, q := range qs[i] {
			r.chk.check("Q >= serial Q - 0.02", q >= sr.Modularity-0.02,
				"%s: Q %.4f, serial Q %.4f", labels[i], q, sr.Modularity)
		}
	}
	if r.tr == nil {
		return nil
	}

	// Traced run: one more pass, each call a span with the engine's steps
	// as children, then the Workers(1) and serial reference points.
	r.setLayer("graph.stronghash_ms", strongHashMS(graphs))
	var runs []engineRun
	var traced time.Duration
	for i, g := range graphs {
		t := time.Now()
		out, err := det.DetectInto(r.ctx, g, res[i])
		wall := time.Since(t)
		if err != nil {
			return fmt.Errorf("traced pass on %s: %w", labels[i], err)
		}
		res[i] = out
		traced += wall
		runs = append(runs, observeRun(wall, out))
		id := r.tr.add(0, "engine.detect", t, wall, labels[i], "")
		r.tr.engineSpans(id, t, labels[i], out)
	}
	r.setLayer("trace.overhead_share", traced.Seconds()/suiteS-1)
	r.engineMetrics(runs, spec.vf, spec.coloring)
	return r.referencePasses(graphs, spec.opts, suiteS, serialS)
}

// poolShares sets the pool's counter-based metrics from stats read before
// and after the timed window of the given number of requests.
func (r *run) poolShares(before, after map[string]float64, requests float64) {
	led, ok := delta(before, after, "Led")
	if !ok || requests == 0 {
		delete(r.layer, "pool.engine_runs_per_request")
		r.absentLayer("pool.engine_runs_per_request", "pool stats have no Led counter")
		return
	}
	r.setLayer("pool.engine_runs_per_request", led/requests)
	if waited, ok := delta(before, after, "Waited"); ok && led > 0 {
		r.setLayer("pool.waited_share", waited/led)
	}
}

// verifyShard checks sharded quality against the shared-memory engine on
// the same graphs and, in a traced run, measures the shard layer: a traced
// Sharded pass, a pass with no exchange rounds, and the engine layer and
// reference points on the shared-memory pass.
func (r *run) verifyShard(spec offlineSpec, graphs []*grappolo.Graph, labels []string, det grappolo.Detecter, qs [][]float64, suiteS float64) error {
	var runs []engineRun
	sharedTimes, shared, err := r.detectPass(graphs, labels, withWorkers(spec.opts, r.nproc), &runs, "engine.detect")
	if err != nil {
		return err
	}
	qRatio := 1e300
	for i := range graphs {
		for _, q := range qs[i] {
			qRatio = min(qRatio, q/shared[i].Modularity)
			r.chk.check("sharded Q >= 0.98 x shared-memory Q", q >= 0.98*shared[i].Modularity,
				"%s: sharded Q %.4f, shared-memory Q %.4f", labels[i], q, shared[i].Modularity)
		}
	}
	if r.tr == nil {
		return nil
	}
	sharedS := sum(sharedTimes)
	r.setLayer("shard.q_ratio_min", qRatio)
	r.setLayer("shard.vs_shared_ratio", suiteS/sharedS)
	r.setLayer("graph.stronghash_ms", strongHashMS(graphs))
	var traced time.Duration
	for i, g := range graphs {
		t := time.Now()
		_, err := det.Detect(r.ctx, g)
		wall := time.Since(t)
		if err != nil {
			return fmt.Errorf("traced sharded pass on %s: %w", labels[i], err)
		}
		traced += wall
		r.tr.add(0, "shard.detect", t, wall, labels[i], "")
	}
	r.setLayer("trace.overhead_share", traced.Seconds()/suiteS-1)
	noExchange, _, err := spec.newSharded(r.nproc, 0)
	if err != nil {
		return err
	}
	var zero time.Duration
	for i, g := range graphs {
		t := time.Now()
		if _, err := noExchange.Detect(r.ctx, g); err != nil {
			return fmt.Errorf("sharded pass without exchange on %s: %w", labels[i], err)
		}
		zero += time.Since(t)
	}
	r.setLayer("shard.exchange_s", suiteS-zero.Seconds())
	r.engineMetrics(runs, spec.vf, spec.coloring)
	return r.referencePasses(graphs, spec.opts, sharedS, nil)
}
