package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"grappolo"
	"grappolo/generate"
)

// Serving workloads send Medium graphs through
// Guard → Cache → Pool → engine from a closed loop of nproc clients.
const (
	deltaEdits    = 64   // the Cache's DeltaEdits budget
	hotEdits      = 64   // edited re-uploads of one resident base
	hotEditEdges  = 32   // random edges each edit inserts
	hotRequests   = 4000 // requests per serve-hot round
	hotCacheBytes = 256 << 20
	coldVariants  = 12 // serve-cold graphs per shape
	coldRound     = 10 // serve-cold cycles over its graphs per round
	// coldCacheBytes holds about a third of serve-cold's 24 graphs at
	// Medium scale (and fewer than 24 at Small), so a cyclic sweep over
	// them evicts every entry before it is requested again.
	coldCacheBytes = 8 << 20
	coldCacheSmall = 256 << 10
)

// hotShapes are serve-hot's resident graphs, one per community-bearing
// input shape. The two meshes are left out: their detection costs ten
// times any other shape. The first, the road network, is the base every
// edit is made from.
var hotShapes = []generate.Input{
	generate.EuropeOSM, generate.CNR, generate.CoPapers, generate.LiveJournal,
	generate.MG1, generate.UK2002, generate.MG2, generate.Friendster,
}

// coldShapes are serve-cold's shapes: fast to detect, so that a round of a
// few seconds holds hundreds of requests, and distinct in every generator
// instance (copapers' instances are all the same graph).
var coldShapes = []generate.Input{generate.EuropeOSM, generate.LiveJournal}

// serveOpts is the serving engine configuration (the paper's headline
// VF + Distance-1 coloring); the pool adds Workers(1) per engine.
var serveOpts = []grappolo.Option{grappolo.VertexFollowing(), grappolo.Coloring(grappolo.Distance1)}

// stack is the serving stack Guard → Cache → Pool.
type stack struct {
	guard *grappolo.Guard
	cache *grappolo.Cache
	pool  *grappolo.Pool
}

func newStack(nproc int, cacheBytes int64) (*stack, error) {
	pool, err := grappolo.NewPool(nproc, withWorkers(serveOpts, 1)...)
	if err != nil {
		return nil, err
	}
	cache, err := grappolo.NewCache(pool, grappolo.DeltaEdits(deltaEdits), grappolo.CacheBytes(cacheBytes))
	if err != nil {
		return nil, err
	}
	guard, err := grappolo.NewGuard(cache, grappolo.MaxQueueDepth(4*nproc))
	if err != nil {
		return nil, err
	}
	return &stack{guard: guard, cache: cache, pool: pool}, nil
}

func (s *stack) stats() map[string]float64 {
	return snapshot(map[string]any{"guard": s.guard, "cache": s.cache, "pool": s.pool})
}

// edit is an edited re-upload: graph base of the workload's lists with
// inserted edges added.
type edit struct {
	base     int
	inserted []grappolo.Edge
}

// serveSpec is one serving workload.
type serveSpec struct {
	lists []edgeList // graphs built once and kept for the whole run
	// edits are rebuilt as fresh Graphs every round: each is a re-upload.
	edits []edit
	// resident is how many leading graphs are warmed into every fresh
	// stack before its round starts.
	resident int
	seq      []int // the request sequence, as graph indices
	roundLen int   // requests per round
	// freshRounds starts every round on a fresh stack at the start of seq;
	// otherwise rounds continue cycling through seq on one stack.
	freshRounds bool
	verifySeq   []int // the untimed verification round
	cacheBytes  int64
	class       func(graph int) string
}

func runServeHot(r *run) error {
	sc := r.cfg.serveScale()
	var lists []edgeList
	for _, in := range hotShapes {
		l, err := generateList(in, sc, 0, r.nproc)
		if err != nil {
			return err
		}
		lists = append(lists, l)
	}
	rng := newRand(r.cfg.seed, 2)
	edits := make([]edit, hotEdits)
	for e := range edits {
		edits[e] = edit{base: 0, inserted: randomEdges(lists[0].n, hotEditEdges, rng)}
	}
	// Every edit once, then each resident equally often, so that the mix of
	// graphs (and with it mean Q and the cost of a hit) is the same under
	// every seed; the seed decides the order.
	seq := make([]int, 0, hotRequests)
	for e := range edits {
		seq = append(seq, len(lists)+e)
	}
	for i := 0; len(seq) < hotRequests; i++ {
		seq = append(seq, i%len(lists))
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return runServe(r, serveSpec{
		lists: lists, edits: edits, resident: len(lists),
		seq: seq, roundLen: len(seq), freshRounds: true, verifySeq: seq, cacheBytes: hotCacheBytes,
		class: func(g int) string {
			if g < len(lists) {
				return "resident"
			}
			return "edit"
		},
	})
}

func runServeCold(r *run) error {
	var lists []edgeList
	for v := 0; v < coldVariants; v++ {
		for _, in := range coldShapes {
			l, err := generateList(in, r.cfg.serveScale(), uint64(v), r.nproc)
			if err != nil {
				return err
			}
			l.name = fmt.Sprintf("%s#%d", l.name, v)
			lists = append(lists, l)
		}
	}
	seq := newRand(r.cfg.seed, 3).Perm(len(lists))
	bytes := int64(coldCacheBytes)
	if r.cfg.small {
		bytes = coldCacheSmall
	}
	return runServe(r, serveSpec{
		lists: lists, seq: seq, roundLen: coldRound * len(seq), verifySeq: append(append([]int{}, seq...), seq...),
		cacheBytes: bytes, class: func(int) string { return "cold" },
	})
}

// closedLoop sends n requests from clients goroutines, each sending its
// next request only after its previous reply and recycling its own Result.
// Request i is for graph seq[(offset+i) % len(seq)].
func closedLoop(r *run, d grappolo.Detecter, graphs []*grappolo.Graph, seq []int, offset, n, clients int) round {
	var next atomic.Int64
	per := make([][]call, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var res *grappolo.Result
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				gi := seq[(offset+i)%len(seq)]
				t := time.Now()
				out, err := d.DetectInto(r.ctx, graphs[gi], res)
				cl := call{graph: gi, lat: time.Since(t), err: err}
				if err == nil {
					res, cl.q = out, out.Modularity
				}
				per[c] = append(per[c], cl)
			}
		}(c)
	}
	wg.Wait()
	rd := round{wall: time.Since(start)}
	for _, p := range per {
		rd.calls = append(rd.calls, p...)
	}
	return rd
}

// serveState is a serving run's graphs and current stack.
type serveState struct {
	spec   serveSpec
	graphs []*grappolo.Graph // lists, then edits
	st     *stack
	warmQ  map[int]float64 // resident graph -> Q of its warm-up response
	warmH  map[int]uint64  // resident graph -> membership hash of it
	buf    []grappolo.Edge // an edit's edge list, rebuilt for each edit
}

// freshStack builds a new stack and warms it with the resident graphs.
func (s *serveState) freshStack(r *run) error {
	st, err := newStack(r.nproc, s.spec.cacheBytes)
	if err != nil {
		return err
	}
	s.st = st
	s.warmQ, s.warmH = map[int]float64{}, map[int]uint64{}
	for i := 0; i < s.spec.resident; i++ {
		res, err := st.guard.Detect(r.ctx, s.graphs[i])
		if err != nil {
			return fmt.Errorf("warm-up on %s: %w", s.spec.lists[i].name, err)
		}
		s.warmQ[i], s.warmH[i] = res.Modularity, hashMembership(res.Membership)
	}
	return nil
}

// buildEdits builds every edit as a fresh Graph and returns them with the
// total FromEdges time in seconds.
func (s *serveState) buildEdits(r *run) ([]*grappolo.Graph, float64) {
	graphs := make([]*grappolo.Graph, len(s.spec.edits))
	var total time.Duration
	for e, ed := range s.spec.edits {
		base := s.spec.lists[ed.base]
		s.buf = append(append(s.buf[:0], base.edges...), ed.inserted...)
		t := time.Now()
		graphs[e] = grappolo.FromEdges(base.n, s.buf, r.nproc)
		total += time.Since(t)
	}
	return graphs, total.Seconds()
}

// rebuildEdits replaces the edit graphs with freshly built ones.
func (s *serveState) rebuildEdits(r *run) float64 {
	edits, t := s.buildEdits(r)
	copy(s.graphs[len(s.spec.lists):], edits)
	return t
}

func runServe(r *run, spec serveSpec) error {
	s := &serveState{spec: spec}
	release := func() { s.graphs, s.st = nil, nil }
	err := r.setup(release, func() error {
		base, t := buildGraphs(spec.lists, r.nproc)
		s.graphs = append(base, make([]*grappolo.Graph, len(spec.edits))...)
		t += s.rebuildEdits(r)
		r.setLayer("graph.build_s", t)
		return s.freshStack(r)
	})
	if err != nil {
		return err
	}

	// Timed window: rounds of closed-loop traffic. With fresh rounds,
	// every round after the first starts on a fresh warmed stack with
	// freshly uploaded edits, and that reset is not timed; otherwise the
	// rounds continue through the request cycle on one stack. The host
	// clock samples before every round.
	var rounds []round
	var before, after map[string]float64
	moved := map[string]float64{}
	r.startWindow()
	start := time.Now()
	for i := 0; !r.timedOut(start, i); i++ {
		if i > 0 && spec.freshRounds {
			s.st = nil
			runtime.GC() // the discarded stack is the benchmark's garbage, not the program's
			s.rebuildEdits(r)
			if err := s.freshStack(r); err != nil {
				return err
			}
		}
		r.host.sample()
		offset := 0
		if !spec.freshRounds {
			offset = i * spec.roundLen
		}
		before = s.st.stats()
		rounds = append(rounds, closedLoop(r, s.st.guard, s.graphs, spec.seq, offset, spec.roundLen, r.nproc))
		after = s.st.stats()
		for _, name := range []string{"Hits", "DeltaRouted", "Evictions", "Led", "Waited", "Shed"} {
			if d, ok := delta(before, after, name); ok && moved[name] >= 0 {
				moved[name] += d
			} else {
				moved[name] = -1
			}
		}
	}
	r.windowMetrics(rounds, spec.class)
	if c, ok := counter(after, "Bytes"); ok {
		e, _ := counter(after, "Entries")
		r.logf("cache at window end: %.0f entries, %.1f MiB", e, c/(1<<20))
	}
	r.servingCounters(moved, float64(r.attempted))
	var timed []call
	for _, rd := range rounds {
		timed = append(timed, rd.calls...)
	}

	// Untimed verification: one more round on a fresh stack from a single
	// client, every response checked; traced runs also record it as spans.
	s.rebuildEdits(r)
	if err := s.freshStack(r); err != nil {
		return err
	}
	guardReplay, err := r.replay(s, s.st.guard, s.st.stats, spec.verifySeq, "guard.request", true, nil)
	if err != nil {
		return err
	}
	coldQ, err := r.coldQualities(s, guardReplay, timed)
	if err != nil {
		return err
	}
	r.checkServing(s, guardReplay, timed, coldQ)
	if r.tr == nil {
		return nil
	}
	return r.traceServe(s, guardReplay, coldQ)
}

// servingCounters sets the counter-based layer metrics from the counters
// the timed window moved (-1: the stats no longer have that counter).
func (r *run) servingCounters(moved map[string]float64, requests float64) {
	share := func(metric, num, den string, denValue float64) {
		n := moved[num]
		if n < 0 || denValue <= 0 {
			r.absentLayer(metric, fmt.Sprintf("stats have no %s counter or no %s", num, den))
			return
		}
		r.setLayer(metric, n/denValue)
	}
	share("cache.hit_ratio", "Hits", "requests", requests)
	if h := moved["Hits"]; h >= 0 {
		share("cache.delta_routed_share", "DeltaRouted", "requests that were not hits", requests-h)
	}
	share("cache.evictions_per_request", "Evictions", "requests", requests)
	share("pool.engine_runs_per_request", "Led", "requests", requests)
	share("pool.waited_share", "Waited", "engine runs", moved["Led"])
	share("guard.shed_share", "Shed", "requests", requests)
}

// response is one reply of a single-client replay.
type response struct {
	graph   int
	outcome string // hit, delta, miss, skipped, or unknown if stats lack the counters
	q       float64
	hash    uint64
	wall    time.Duration
	run     engineRun // the engine's timings, on a miss
}

// replay sends seq through d from one client. stats (nil for a bare Pool)
// classifies each response by the counters the call moved. With verify,
// every distinct response is checked for a dense membership and a
// modularity it reproduces. In a traced run each request is a span named
// spanName, with the engine's steps as children on a miss.
func (r *run) replay(s *serveState, d grappolo.Detecter, stats func() map[string]float64, seq []int, spanName string, verify bool, onlyIdx map[int]bool) ([]response, error) {
	out := make([]response, 0, len(seq))
	checked := map[[2]uint64]bool{}
	var res *grappolo.Result
	for i, gi := range seq {
		if onlyIdx != nil && !onlyIdx[i] {
			out = append(out, response{graph: gi, outcome: "skipped"})
			continue
		}
		var before map[string]float64
		if stats != nil {
			before = stats()
		}
		t := time.Now()
		got, err := d.DetectInto(r.ctx, s.graphs[gi], res)
		wall := time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("replay request %d (%s): %w", i, s.spec.class(gi), err)
		}
		res = got
		rec := response{graph: gi, wall: wall, outcome: "miss", q: got.Modularity, hash: hashMembership(got.Membership)}
		if stats != nil {
			rec.outcome = outcomeOf(before, stats())
		}
		if rec.outcome == "miss" {
			rec.run = observeRun(wall, got)
		}
		if verify && !checked[[2]uint64{uint64(gi), rec.hash}] {
			checked[[2]uint64{uint64(gi), rec.hash}] = true
			err := resultError(s.graphs[gi], res)
			r.chk.check("membership dense, modularity reproduces", err == nil, "request %d (%s): %v", i, s.spec.class(gi), err)
		}
		if r.tr != nil && spanName != "" {
			id := r.tr.add(0, spanName, t, wall, s.spec.class(gi), rec.outcome)
			if rec.outcome == "miss" {
				r.tr.engineSpans(id, t, s.spec.class(gi), got)
			}
		}
		out = append(out, rec)
	}
	return out, nil
}

// outcomeOf classifies a cache response by the counters it moved.
func outcomeOf(before, after map[string]float64) string {
	if d, ok := delta(before, after, "Hits"); ok && d > 0 {
		return "hit"
	}
	if d, ok := delta(before, after, "DeltaRouted"); ok && d > 0 {
		return "delta"
	}
	if _, ok := counter(after, "Hits"); !ok {
		return "unknown"
	}
	return "miss"
}

// coldQualities returns the Q of a cold Workers(1) detection for every
// graph that was served other than from the warm-up or by an exact
// repeat: the floor that delta-routed responses are checked against.
func (r *run) coldQualities(s *serveState, replay []response, timed []call) (map[int]float64, error) {
	need := map[int]bool{}
	for _, rec := range replay {
		if rec.graph >= s.spec.resident {
			need[rec.graph] = true
		}
	}
	for _, c := range timed {
		if c.graph >= s.spec.resident {
			need[c.graph] = true
		}
	}
	d, err := grappolo.New(withWorkers(serveOpts, 1)...)
	if err != nil {
		return nil, err
	}
	out := map[int]float64{}
	for gi := range need {
		res, err := d.Detect(r.ctx, s.graphs[gi])
		if err != nil {
			return nil, fmt.Errorf("cold reference on %s: %w", s.spec.class(gi), err)
		}
		out[gi] = res.Modularity
	}
	return out, nil
}

// checkServing checks the verification round and the Q every timed
// response carried.
func (r *run) checkServing(s *serveState, replay []response, timed []call, coldQ map[int]float64) {
	firstQ, firstH := map[int]float64{}, map[int]uint64{}
	for gi, q := range s.warmQ {
		firstQ[gi], firstH[gi] = q, s.warmH[gi]
	}
	for i, rec := range replay {
		label := s.spec.class(rec.graph)
		switch rec.outcome {
		case "hit":
			q, seen := firstQ[rec.graph]
			r.chk.check("exact repeat bit-identical to first response", seen && q == rec.q && firstH[rec.graph] == rec.hash,
				"request %d (%s): Q %.9f, first response Q %.9f", i, label, rec.q, q)
		case "delta":
			r.chk.check("delta-routed Q >= 0.98 x cold Q", rec.q >= 0.98*coldQ[rec.graph],
				"request %d (%s): Q %.4f, cold Q %.4f", i, label, rec.q, coldQ[rec.graph])
		case "miss":
			if q, ok := coldQ[rec.graph]; ok {
				r.chk.check("miss Q equals a cold detection's", rec.q == q, "request %d (%s): Q %.9f, cold Q %.9f", i, label, rec.q, q)
			}
		default:
			r.chk.check("every response classified", false, "request %d (%s): outcome %s", i, label, rec.outcome)
		}
		if _, seen := firstQ[rec.graph]; !seen {
			firstQ[rec.graph], firstH[rec.graph] = rec.q, rec.hash
		}
	}
	// The timed window kept only Q: a resident's must be its warm-up Q
	// (every request for it is an exact repeat), any other graph's at
	// least 0.98 x its cold Q.
	for _, c := range timed {
		if c.err != nil {
			continue
		}
		if q, ok := s.warmQ[c.graph]; ok {
			r.chk.check("timed resident response Q equals warm-up Q", c.q == q,
				"%s: Q %.9f, warm-up Q %.9f", s.spec.class(c.graph), c.q, q)
			continue
		}
		r.chk.check("timed response Q >= 0.98 x cold Q", c.q >= 0.98*coldQ[c.graph],
			"%s: Q %.4f, cold Q %.4f", s.spec.class(c.graph), c.q, coldQ[c.graph])
	}
}

// traceServe finishes a traced serving run with the layer peel: the same
// requests replayed against Cache → Pool and, for the requests that ran
// the engine, against a bare Pool, each replay with freshly uploaded
// edits; then the reference points on the workload's distinct graphs.
func (r *run) traceServe(s *serveState, guardReplay []response, coldQ map[int]float64) error {
	spec := s.spec
	fresh, _ := buildGraphs(spec.lists, r.nproc)
	freshEdits, _ := s.buildEdits(r)
	r.setLayer("graph.stronghash_ms", strongHashMS(append(fresh, freshEdits...)))
	fresh, freshEdits = nil, nil

	cacheStack, err := newStack(r.nproc, spec.cacheBytes)
	if err != nil {
		return err
	}
	for i := 0; i < spec.resident; i++ {
		if _, err := cacheStack.cache.Detect(r.ctx, s.graphs[i]); err != nil {
			return err
		}
	}
	s.rebuildEdits(r)
	cacheStats := func() map[string]float64 { return snapshot(map[string]any{"cache": cacheStack.cache}) }
	cacheReplay, err := r.replay(s, cacheStack.cache, cacheStats, spec.verifySeq, "cache.request", false, nil)
	if err != nil {
		return err
	}

	pool, err := grappolo.NewPool(r.nproc, withWorkers(serveOpts, 1)...)
	if err != nil {
		return err
	}
	for i := 0; i < spec.resident; i++ {
		if _, err := pool.Detect(r.ctx, s.graphs[i]); err != nil {
			return err
		}
	}
	misses := map[int]bool{}
	for i, rec := range guardReplay {
		if rec.outcome == "miss" {
			misses[i] = true
		}
	}
	s.rebuildEdits(r)
	poolReplay, err := r.replay(s, pool, nil, spec.verifySeq, "pool.request", false, misses)
	if err != nil {
		return err
	}

	// Each tier's overhead on a request is its call's wall time minus the
	// layers below: on hits, Guard → Cache minus Cache; on misses, a
	// call's wall time minus the engine's own step timings, Cache → Pool
	// minus bare Pool.
	var hitGuard, hitCache, deltaMS, cacheMiss, poolMiss []float64
	qRatio, deltas := 1e300, 0
	var runs []engineRun
	for i, g := range guardReplay {
		c, p := cacheReplay[i], poolReplay[i]
		if g.outcome == "hit" && c.outcome == "hit" {
			hitGuard = append(hitGuard, g.wall.Seconds()*1e6)
			hitCache = append(hitCache, c.wall.Seconds()*1e6)
		}
		if g.outcome == "delta" {
			deltas++
			deltaMS = append(deltaMS, ms(g.wall))
			qRatio = min(qRatio, g.q/coldQ[g.graph])
		}
		if c.outcome == "miss" {
			cacheMiss = append(cacheMiss, ms(c.wall-c.run.timing.Total()))
		}
		if p.outcome == "miss" {
			runs = append(runs, p.run)
			poolMiss = append(poolMiss, ms(p.wall-p.run.timing.Total()))
		}
	}
	if len(hitCache) > 0 {
		r.setLayer("cache.hit_us_p50", median(hitCache))
		r.setLayer("guard.overhead_us", median(hitGuard)-median(hitCache))
	} else {
		r.absentLayer("cache.hit_us_p50", "no request was an exact repeat")
		r.absentLayer("guard.overhead_us", "measured on hits; no request was an exact repeat")
	}
	if deltas > 0 {
		r.setLayer("cache.delta_ms_p50", median(deltaMS))
		r.setLayer("cache.delta_q_ratio_min", qRatio)
	} else {
		r.absentLayer("cache.delta_ms_p50", "no request was delta-routed")
		r.absentLayer("cache.delta_q_ratio_min", "no request was delta-routed")
	}
	if len(runs) > 0 {
		r.setLayer("pool.overhead_ms", median(poolMiss))
		r.engineMetrics(runs, true, true)
		if len(cacheMiss) > 0 {
			r.setLayer("cache.miss_overhead_ms", median(cacheMiss)-median(poolMiss))
		}
	}
	for _, m := range []string{"shard.exchange_s", "shard.vs_shared_ratio", "shard.q_ratio_min"} {
		r.absentLayer(m, "workload does not shard")
	}
	r.absentLayer("trace.overhead_share", "spans of a single-client replay have no untraced single-client twin")

	base := s.graphs[:len(spec.lists)]
	parallel, _, err := r.detectPass(base, nil, withWorkers(serveOpts, r.nproc), nil, "")
	if err != nil {
		return err
	}
	return r.referencePasses(base, serveOpts, sum(parallel), nil)
}
