// Package grappolo is a Go reproduction of "Parallel heuristics for
// scalable community detection" (Lu, Halappanavar, Kalyanaraman — IPDPSW
// 2014 / Parallel Computing 47, 2015): the Grappolo parallel Louvain
// community-detection system, packaged as a reusable library.
//
// # Quickstart
//
// Build a graph, create a Detector with functional options, detect:
//
//	b := grappolo.NewBuilder(34)
//	for _, e := range edges {
//		b.AddEdge(e[0], e[1], 1)
//	}
//	g := b.Build(0) // 0 workers = all CPUs
//
//	det, err := grappolo.New(
//		grappolo.Workers(8),
//		grappolo.VertexFollowing(),
//		grappolo.Coloring(grappolo.Distance1),
//		grappolo.Balance(grappolo.BalanceAuto),
//	)
//	if err != nil { ... }
//	res, err := det.Detect(ctx, g)
//	// res.Membership, res.NumCommunities, res.Modularity, res.Phases
//
// New validates the whole configuration up front: invalid values and
// invalid combinations (negative worker counts, CPM without a gamma, CPM
// with vertex following, Async with coloring) are errors, never silent
// corrections. No options at all is the paper's baseline. The README's
// option ledger gives each option's paper section, what runs it and the
// test that fails without it.
//
// # Lifecycle: New → Detect → Pool
//
// A Detector owns one reusable engine: every Detect recycles all pipeline
// scratch, so back-to-back detections on same-shaped graphs allocate
// nothing beyond the Result — and DetectInto recycles that too. A Detector
// serves one call at a time; for concurrent traffic, a Pool manages a
// bounded set of engines and hands each request the idle engine whose
// size class best fits the input graph:
//
//	pool, err := grappolo.NewPool(runtime.GOMAXPROCS(0), grappolo.Workers(1))
//	...
//	res, err := pool.Detect(ctx, g) // safe from any number of goroutines
//
// Detect honors context cancellation cooperatively: the engine polls at
// level-loop and phase-sweep boundaries and sweeps observe a latched flag
// once per chunk, so cancellation lands within one chunk of sweep work —
// or after the currently running preprocessing step (vertex following,
// coloring, rebuild) completes — while the per-vertex hot loops stay
// branch-free.
//
// # Serving from cache: coalescing in flight, caching across time
//
// A Pool bounds concurrency and reuses engines, but every request runs
// privately: ten dashboards asking about the same graph cost ten engine
// runs, and the same ten refreshing a minute later cost ten more. A Cache
// in front of the pool (or of a Sharded backend) serves each distinct
// graph once: concurrent identical misses share ONE backend run, fanned
// back out as independent Result copies, and a TTL + LRU result store
// keyed by the graph's exact content and the backend's engine options
// serves later repeats with no run at all:
//
//	c, err := grappolo.NewCache(pool,
//		grappolo.CacheTTL(time.Minute),     // serve an entry at most this long
//		grappolo.CacheBytes(1<<30),         // estimated-resident-bytes budget
//		grappolo.DeltaEdits(64),            // route small edits incrementally
//	)
//	...
//	res, err := c.Detect(ctx, g) // duplicates coalesce; an exact repeat runs NO engine
//
// Coalescing in flight: the first miss for a graph LEADS a run, which
// queues for an engine through the pool's FIFO admission (a fair
// semaphore — no barging, so no request starves behind later arrivals),
// and concurrent misses for the same content join it as FOLLOWERS, which
// consume no permit. The leader publishes its result to the store, then
// copies it out to every follower before it returns. A follower canceled
// while waiting returns its own ctx.Err() immediately; a canceled queued
// request passes its turn on without losing a permit; a canceled LEADER
// never poisons its followers — they retry and one leads a fresh run; and
// a leader that panics releases its followers with an error matching
// ErrEngineFault. PoolStats (Pool.Stats) counts engine runs Led, Waited
// and Canceled, and CacheStats.Coalesced counts followers served by
// another request's run, so under duplicate load Coalesced/Led is the
// coalescing win.
//
// Caching across time: an exact repeat — a dashboard refresh, a retry,
// another tenant uploading the same public dataset — is served
// bit-identical to the run that populated the entry, deep-copied out so
// the caller owns it, with zero engine runs and (into a recycled Result)
// zero allocations (pinned by TestCacheHitZeroAllocs). A CacheBytes budget
// below any entry's size retains nothing: the Cache then only coalesces,
// and a warm miss that leads its run allocates nothing either (pinned by
// TestCacheWarmMissZeroAllocs), while a follower costs O(1).
// BenchmarkCacheDetect measures the cold/hit/delta tiers, and coalesced
// against uncoalesced duplicate load.
//
// Identity: requests are matched by a structural graph fingerprint (exact
// vertex/arc counts and weight sum plus a sampled CSR content hash,
// memoized on the Graph), but the sampled hash is only the O(1) first-pass
// filter. Requests share a run, and an entry is served, only when the
// graph's exact full-content hash (Graph.StrongHash, computed once per
// immutable graph and memoized) agrees too. A sampled collision therefore
// costs the sharing — the colliding request leads its own run, and the
// stored entry is refused to it (CacheStats.Rejected) — never correctness:
// no request is ever served a result computed for a different graph.
//
// With DeltaEdits(k), a miss within k edge INSERTIONS (including weight
// increases) of a cached graph skips the cold run too: the CSR diff is
// replayed onto an incremental maintainer seeded from the cached
// membership — the streaming tier applied to re-uploads — and the result is
// marked Result.Incremental: a valid clustering of the requested graph
// whose quality tracks incremental Louvain (re-anchored by a full
// re-detection once a quarter of the maintainer's vertices have been
// touched) rather than matching a cold run bit-for-bit.
// Deletions and rewires always fall through to the backend. A Cache
// composes under a Guard (NewGuard accepts it as a backend), is safe for
// concurrent use, and exposes Invalidate/InvalidateAll for callers whose
// graphs stop describing reality — see Stream.OnApply below.
//
// # Serving robustly: deadlines, shedding, degraded mode
//
// A Pool (or Cache) bounds concurrency but not queueing: under sustained
// overload its FIFO admission queue grows without limit, every request
// eventually runs at full quality, and an engine-run panic unwinds into
// whichever caller's goroutine drove the engine. Guard is the resilience
// tier that turns the stack into something a production service can sit
// behind:
//
//	gd, err := grappolo.NewGuard(c,
//		grappolo.MaxInFlight(4*pool.Size()),    // hits and followers take no engine
//		grappolo.MaxQueueDepth(32),             // shed past this backlog
//		grappolo.DetectDeadline(2*time.Second), // default per-request budget
//		grappolo.DegradeAtDepth(8),             // fast profile under pressure
//	)
//	...
//	res, err := gd.Detect(ctx, g)
//	switch {
//	case errors.Is(err, grappolo.ErrOverloaded): // shed: retry later / 503
//	case errors.Is(err, grappolo.ErrEngineFault): // engine panic, recovered
//	case err != nil:                             // ctx error as usual
//	default:
//		_ = res.Degraded // true iff served by the degraded profile
//	}
//
// Bounded admission: a request that would queue deeper than MaxQueueDepth
// fails fast with an error matching ErrOverloaded — typed back-pressure the
// caller can convert to a retry-later response. The bound is enforced
// atomically at the admission queue, admitted requests keep their FIFO
// order, and a caller's own context failing while queued is reported as
// that context's error, never disguised as overload. Requests with no deadline of their own receive
// DetectDeadline as a default budget (a caller-supplied deadline is always
// respected as-is), enforced by the engine's chunk-granular cooperative
// cancellation.
//
// Graceful degradation: past DegradeAtDepth queued waiters, requests are
// served by a SECOND size-classed engine set running a cheaper profile —
// the backend's configuration with the paper's own quality/speed knobs
// tightened to at most 2 phases, 8 iterations per phase, and coarser gain
// thresholds (5e-2 colored, 1e-3 final).
// Degraded results are real clusterings of the full graph, bit-identical
// to a one-shot detection under the degraded profile, and marked with
// Result.Degraded so callers can label cached entries. When the queue
// drains, full-quality serving resumes by itself. Degradation is decided
// at admission time from queue depth, so a burst degrades only the
// requests that actually queued behind it.
//
// Fault isolation: an engine run that panics is quarantined twice over —
// the Pool discards the panicked engine instead of recycling it
// (PoolStats.Faulted counts these; the freed slot lazily builds a fresh
// engine) and releases its permit, a Cache leader releases its followers
// with an error matching ErrEngineFault instead of leaving them waiting,
// and the
// Guard converts the propagating panic into an *EngineFaultError carrying
// the panic value. A nil graph is likewise refused up front with
// ErrNilGraph by every serving layer, and a graph whose total edge weight
// is NaN or infinite with an *InputError (Arg "graph"), since no run on it
// would end. GuardStats extends PoolStats with
// Shed, Degraded and Recovered counts; a warm, non-degraded Guard request
// whose context already has a deadline allocates nothing (pinned by
// TestGuardWarmZeroAllocs), and the whole stack is soaked under seeded
// fault injection — panics, latency, forced cancellations — by the
// faultinject-tagged chaos tests.
//
// # Scaling out: sharded detection with ghost-label exchange
//
// The serving tiers above scale REQUESTS; Sharded models the paper's §7
// distributed-memory setting, in which no single engine holds the whole
// graph during the local phase. It does not speed up one host: on the
// shard-suite benchmark (a 2-vCPU host) a 4-shard detection took about 3×
// as long as one shared-memory run. It partitions the input into shards
// (block ranges or arc-balanced ranges), extracts one subgraph per shard
// in which every external neighbor appears as a frozen GHOST vertex — cut
// edges are kept as local–ghost halo edges, not dropped — and runs
// synchronized rounds of local-move sweeps, one engine per shard checked
// out of the wrapped Pool. Between rounds, shards exchange boundary
// community labels at a barrier: each shard re-seeds from the latest
// global labels with its ghosts pinned to their owners' assignments, so a
// boundary vertex can join a community that lives on another shard. A
// final master merge coarsens the FULL graph by the exchanged labels (cut
// edges now aggregated into real meta-edges) and re-clusters the coarse
// graph with a complete engine run:
//
//	sh, err := grappolo.NewSharded(pool,
//		grappolo.WithShards(8),
//		grappolo.WithExchangeRounds(2),
//		grappolo.WithPartition(grappolo.PartitionArcs),
//	)
//	...
//	res, err := sh.Detect(ctx, g) // same Detecter contract as every tier
//
// This is the repair of the distributed-memory contrast the paper draws in
// §7: the partition-and-merge scheme it cites (its ref. [25], emulated in
// internal/distributed) DISCARDS cut edges during the local phase and loses
// quality on partition-adversarial inputs. Halo edges plus label exchange
// recover that quality — the regression tests pin sharded modularity within
// 2% of the shared-memory Detector on suite graphs with scrambled vertex
// ids (and strictly above the drop-cut-edges emulation) — while each shard
// only ever materializes its own subgraph plus a one-vertex-deep halo.
// Sharded implements Detecter, so it wraps in a Guard like any backend;
// engine checkouts queue FIFO-fair through the pool, bounding memory under
// concurrent sharded traffic. Results repeat exactly for a fixed graph and
// configuration when edge weights are integers, at any worker count, and at
// Workers(1) for any weights. With non-integer weights and two or more
// workers, the atomic float adds that rebuild each community's degree sum
// a_C land in scheduling order, so Q's low bits can vary from run to run.
//
// # Streaming
//
// Streaming workloads use NewStream, which maintains communities under
// live edge insertions with batched incremental updates and pooled full
// re-detections. NewStream checks its seed as the detection entry points
// check their graphs. AddEdge rejects weights that are not positive finite
// numbers, and weights that would make the total edge weight infinite, with
// ErrBadEdgeWeight (a NaN or Inf would corrupt the live modularity
// bookkeeping irreversibly), and a negative endpoint with an *InputError;
// FlushCtx surfaces cancellation of the full re-detections a flush can
// escalate to (the overlay stays consistent and the refresh is retried on
// the next flush), and OnApply registers a post-batch hook — the natural
// place to call Cache.Invalidate for the stream's seed graph. A batch
// re-decides its frontier in ascending vertex order, so with integer edge
// weights the same seed, options and edges give the same Membership and
// Modularity bits on every run; the Cache's delta tier runs the same
// maintainer under the same contract. Synthetic inputs reproducing the paper's
// 11-graph suite live in grappolo/generate; partition-agreement measures
// (Table 3) in grappolo/quality.
//
// The algorithms, experiment harness and serial baselines live under
// internal/ (internal/core, internal/graph, internal/coloring,
// internal/par, internal/seq, internal/harness, ...); the root package and
// its public subpackages are the supported API.
//
// # Flat-accumulator hot path
//
// The paper identifies the per-vertex neighbor-community map and the graph
// rebuild as the dominant phase costs (§5.5, Figs. 8–9). Everywhere the
// original code (and this reproduction's first port) used a hash map on the
// hot path — decide in internal/core, row aggregation in the rebuild, and
// the serial baselines in internal/seq — the engine now uses
// par.SparseAccum: a flat value array indexed directly by community id, a
// dense list of touched keys in first-touch order, and a generation stamp
// per slot so Reset is O(1) and no clearing ever touches untouched slots.
// Accumulators are pooled per worker (par.ForChunkWorker/ForChunkPrefix
// expose the worker index) and reused across sweeps, making the
// steady-state decide loop allocation-free; sweep chunks are balanced by
// arc count over the CSR offsets rather than vertex count, so hub-heavy
// skewed inputs cannot serialize a sweep. First-touch key order equals the
// old map-insertion order, keeping all deterministic paths bit-identical.
//
// # Scored snapshot sweeps
//
// Algorithm 1 ends every iteration by scoring the new assignment for its
// gain-threshold test, and a separate scoring pass costs another read of
// every arc plus an atomic re-aggregation of the community degrees a_C. An
// uncolored sweep already reads every arc against the previous assignment:
// gathering vertex i's row leaves e_{i→C(i)} in the accumulator slot of
// i's own community, so the sweep records it, and the previous
// assignment's modularity (or CPM score) becomes an O(n) reduction of
// those values and of the snapshot's a_C, which every sweep after a phase's
// first carries by the previous sweep's moves instead of rebuilding them.
// Uncolored phases and the shard sweeps therefore run one sweep ahead of
// their score: sweep k+1 scores state k, and the sweep that finds the gain
// below threshold (or the one after the iteration cap) is speculative and
// its moves are undone. Iteration counts, score traces and memberships
// equal those of scoring each state right after the sweep that made it,
// bit for bit; a phase pays one extra sweep in place of one scoring pass
// per iteration. Measured with bench/run.sh on a shared 2-vCPU host
// (medians of alternating before/after pairs), suite time fell from 2.66 s
// to 1.68 s on suite-baseline, from 2.08 s to 1.55 s on suite-colored and
// from 2.69 s to 2.30 s on shard-suite, and serve-cold throughput rose
// from 100 to 128 requests/s; serve-hot's cache hits never reach the
// engine and did not move.
//
// A colored sweep scores the state it leaves from its own moves. No two
// members of a color set are adjacent, so while vertex i moves from C to D
// its neighbors hold still, and the within-community sum Σ_v e_{v→C(v)}
// changes by exactly 2(e_{i→D} − e_{i→C\{i}}), two values already in i's
// accumulator. The sweep records that delta per vertex, the moves keep a_C
// current, and the state's score is a running within sum plus the O(n)
// null-term reduction: no pass over the arcs and no re-aggregation of a_C.
// Only asynchronous (PLM) phases, whose adjacent vertices move at the same
// time, and the opening score of each phase still read every arc to score.
// With integer weights every one of these sums is exact, so scores,
// iteration counts and memberships equal those of scoring each state in
// full. Vertex following coarsens without the general rebuild: a
// follower's arcs all stay in its community, so each new row is its
// root's row renumbered, with the root's self-loop, its arcs to its
// followers and its followers' degrees folded into one self-loop entry.
// Together the two changes took suite-colored's suite time from 0.85 s to
// 0.63 s on the same host, with the same output. The README's Performance
// section has the quartiles and pair counts.
//
// Uncolored sweeps skip certified stays. After a phase's first sweep, a
// vertex whose last decision was to stay is not decided again while neither
// it nor any vertex in its row has moved since (the movers of each sweep
// stamp themselves and their rows), and while its degree (its
// node size under CPM) times a drift budget — the sum over sweeps of
// γ·max_C |Δa_C|/m², or 2γ·max_C |Δns_C|/m under CPM — stays below the
// margin by which its best candidate gain was negative, less a rounding
// tolerance. Nothing else enters its decision, so the skipped vertex keeps
// the community and within term deciding it would give: memberships, Q
// bits, traces and iteration counts are those of deciding every vertex, for
// any weights and worker count. The skip leaves 56–67% of phase 1's vertex
// visits undecided on nine of the 11 suite graphs, and took
// suite-baseline's suite time from 2.24 s to 1.86 s on the same host
// (medians of 10 alternating pairs, 10 of 10 won) with the same output;
// no other workload got worse.
//
// Uncolored sweeps carry a_C by moves. Only a phase's first sweep sums a_C,
// |C| and the CPM node-size sums from scratch; every later sweep opens by
// applying the previous sweep's moves through the atomic update colored
// sweeps use, and each mover stamps itself and every vertex in its row
// with the sweep's epoch, so the skip test reads one stamp where it
// scanned a row. Late in a phase few vertices move, so beyond one
// comparison per vertex both costs now follow the moves instead of every
// vertex and every candidate's row. With integer weights the carried
// a_C equal the re-summed ones bit for bit, and the stamps mark exactly the
// vertices the row scan found, so output and skips are unchanged. This
// took suite-baseline's suite time from 1.88 s to 1.50 s and shard-suite's
// from 2.81 s to 2.05 s on the same host (medians of 10 alternating pairs,
// 10 of 10 won each); no other workload got worse.
//
// # Reusable Engine and scratch ownership
//
// core.Run is a thin wrapper over core.Engine, the reusable pipeline: an
// Engine owns every mutable scratch buffer the run needs — the phase working
// set and per-worker decide accumulators, the rebuild counting-sort buffers,
// row accumulators and staging arenas, the renumbering and CPM node-size
// buffers, the coloring scratch (worklists, flat markers, set storage via
// coloring.Scratch), and one pooled coarse-graph slot per rebuild depth
// (graph.FromCSRInto recycles the CSR arrays and Graph header in place).
// Everything is sized by high-water mark and recycled across phases and
// across Run calls, so the second run on a same-shaped graph performs zero
// scratch allocations; Engine.RunInto additionally recycles the Result,
// making warm re-runs allocate nothing at all (pinned by
// TestEngineRunSteadyStateZeroAllocs and BenchmarkEngineReuse).
//
// Ownership rules: hold ONE Engine per sequence of same-configuration runs
// (dynamic overlays re-detecting per flush, harness repeat sweeps, services
// answering clustering requests back to back) and let it grow to the largest
// graph it serves; re-create the engine only to change Options or to release
// the pooled memory. An Engine is not safe for concurrent Run calls — give
// each worker goroutine its own. Results returned by Run are independent of
// the engine; results passed back into RunInto are overwritten.
//
// The zero-alloc guarantee leans on two conventions enforced throughout the
// hot paths: loop bodies are package-level captureless functions receiving
// their state as an explicit context argument (par.ForChunkCtx and friends —
// a capturing closure heap-allocates at every call site because the body
// parameter escapes into the worker goroutines), and contexts larger than
// 128 bytes are passed by pointer to pooled storage (Go captures bigger
// values by reference, which would heap-move them per call).
//
// # Memory layout
//
// A graph stores its CSR as two parallel streams — int32 neighbor ids and
// float64 weights — and every sweep reads those streams directly. Decide
// kernels are monomorphic: the engine dispatches once per sweep to a
// specialization per (membership-atomicity, objective) instead of branching
// or calling through closures per arc.
//
// # Coloring policy
//
// Coloring follows the paper's multi-phase policy (§6.1): a phase stays
// colored while the one before it gained at least the colored threshold of
// modularity, and once a colored phase gains less, the remaining phases run
// uncolored to the final threshold. The paper also stops coloring below
// 100,000 vertices and uses a colored threshold of 1e-2, values chosen for
// inputs of 325K–52M vertices. On smaller graphs that cutoff leaves the
// headline configuration uncolored, so the defaults are no vertex cutoff
// and a colored threshold of 1e-3, which keeps the generated suite's mean
// modularity where the paper's policy put it while cutting its iterations
// from about 1,600 to under 200. ColoringCutoff and Thresholds restore the
// paper's values; the paper-table harness pins them.
//
// A colored run repeats exactly for a given worker count when edge weights
// are integers, and at Workers(1) for any weights. The speculative coloring
// reads only colors that are already committed or that the same worker
// assigned earlier in its chunk, and the chunks depend only on the worker
// count. At two or more workers, each color set first decides against the
// community degrees as they stood when the set began, and then applies its
// moves. Without that, a phase's gain near the colored threshold could stop
// one run after 3 iterations and carry the next one to 30.
//
// # Arc-balanced coloring
//
// The paper blames uk-2002's poor speedup on skewed color-set sizes (943
// colors, set-size RSD 18.876, §6.2) and proposes balanced coloring as the
// remedy. coloring.Rebalance implements that repair as speculative parallel
// rounds (the same speculate-and-resolve pattern as the coloring itself)
// with flat generation-stamped neighbor-color marking, in two balance modes
// threaded through core.Options.ColorBalance and the -balance CLI flag:
// vertex mode evens per-set vertex counts, arc mode evens per-set total ARC
// counts — the metric the colored sweep's work is actually proportional to,
// so one arc-heavy straggler set cannot serialize a sweep that looks
// balanced by vertex count — and auto mode (BalanceAuto, -balance auto)
// measures the base coloring's ArcRSD each phase and applies the arc repair
// only when it exceeds core.BalanceAutoArcRSD (0.5), the one constant that
// harness.ColorSkew's "auto" column reads too. When a phase's sets were
// arc-rebalanced the colored sweep consumes them directly: the per-set arc
// prefix sums and binary-search chunking are skipped because the sets are
// even by construction. The rebalancer never increases the color count, is
// deterministic for any worker count, and its per-round load RSD is
// non-increasing. coloring.Stats and core.PhaseStats report both the
// vertex-count and arc-count RSDs (harness.ColorSkew / benchtables
// -colorskew tabulate them, along with the mode auto would pick).
//
// # Static analysis
//
// The conventions above are contracts, not habits, and the repo mechanizes
// them: internal/analysis is a small go/analysis-shaped suite of four
// repo-specific analyzers, driven by the cmd/grappolovet multichecker and
// run as a blocking CI step under both build-tag sets CI compiles
// (default and faultinject). The analyzers: capturebody rejects
// capturing func literals (and bound method values) passed as bodies to
// the par.*Ctx helpers — the zero-alloc contract says those bodies must be
// package-level captureless functions; internalimport enforces the API
// boundary (examples/ and cmd/grappolo never import grappolo/internal/...);
// typederr rejects ==/!= comparisons against error sentinels (use
// errors.Is) and fmt.Errorf calls that stringify an error with %v instead
// of wrapping with %w; hotalloc checks functions annotated with a
// //grappolo:hotpath directive for per-call allocation sources — map
// literals and inserts, appends not rooted in a parameter or receiver, fmt
// calls, interface boxing, and closure creation. Annotate a function hot
// only when a steady-state allocation test covers the path; the directive
// is a machine-checked claim, not documentation, and a test in
// internal/analysis also checks it against the compiler's escape analysis
// (go build -gcflags=-m): no "escapes to heap" or "moved to heap" line may
// fall inside an annotated function. Run the suite with
//
//	go run ./cmd/grappolovet ./...
//
// (flags: -tags, -run to select analyzers, -list). Each analyzer carries
// fixture tests under internal/analysis/testdata that fail if its checks
// are weakened.
//
// Executables: cmd/grappolo (CLI), cmd/graphgen (input generator),
// cmd/benchtables (regenerates every table and figure of the paper).
// Runnable examples are under examples/. The benchmarks in bench_test.go
// map one-to-one onto the paper's tables and figures.
package grappolo
