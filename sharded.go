package grappolo

import (
	"context"
	"fmt"

	"grappolo/internal/core"
	"grappolo/internal/shard"
)

// PartitionMode selects how Sharded assigns vertices to shards.
type PartitionMode = shard.PartitionMode

// Partition modes for WithPartition.
const (
	// PartitionBlock splits vertex ids into contiguous ranges of even
	// vertex count.
	PartitionBlock = shard.ModeBlock
	// PartitionArcs splits vertex ids into contiguous ranges of even arc
	// count, so hub-heavy id ranges cannot overload one shard.
	PartitionArcs = shard.ModeArcs
)

// Sharded serves detections by a sharded parallel Louvain with ghost-label
// exchange. The graph is partitioned into shards, each shard runs
// local-move sweeps on its own subgraph with frozen GHOST images of its
// external neighbors (every cut edge kept as a halo edge, unlike a
// drop-cut-edges partition scheme), shards exchange boundary labels at
// synchronized barriers, and a final master merge coarsens the full graph
// by the exchanged labels and re-clusters it.
//
// The tier models the paper's §7 distributed-memory setting, in which no
// process holds the whole graph during the local phase; it does not speed
// up one host. In a traced run of the benchmark's shard-suite workload
// (4 shards, 2 exchange rounds, arc partition, 6 Large graphs; seed 1, a
// 2-vCPU host) a sharded detection took 3.09× as long as a shared-memory
// run of the same graph, with at least 0.997 of its modularity. Three
// engine paths exist only for it: graph.GhostSubgraph builds each shard's
// subgraph, core.Engine.SweepSeeded sweeps it from the exchanged labels,
// and the pinned-suffix (sweepOwn) loop of the uncolored sweep keeps the
// ghosts fixed.
//
// Engines for the per-shard sweeps and the merge run are checked out of the
// wrapped Pool per use, so shard concurrency is bounded by the pool size —
// shards queue FIFO-fair behind other traffic instead of over-subscribing
// memory — and every engine checkout shows up in the pool's Stats.
//
// Sharded implements Detecter, so it composes with the rest of the stack:
// wrap it in a Guard for shedding, deadlines and panic quarantine. Results
// repeat exactly for a fixed graph and configuration (for non-integer edge
// weights only at Workers(1); see the package doc), but differ from
// the single-engine Detector's results — sharding changes the sweep order
// by design (quality stays comparable; the regression tests pin the
// recovery margin). A Sharded is safe for concurrent use.
type Sharded struct {
	pool *Pool
	opts shard.Options
}

// shardConfig accumulates ShardOptions before validation.
type shardConfig struct {
	shards int
	rounds int
	mode   PartitionMode
}

// ShardOption configures NewSharded.
type ShardOption func(*shardConfig) error

// WithShards sets the number of graph partitions. n must be >= 1; requests
// on graphs smaller than n are clamped. Default: the wrapped pool's Size.
func WithShards(n int) ShardOption {
	return func(c *shardConfig) error {
		if n < 1 {
			return fmt.Errorf("grappolo: WithShards(%d): need at least 1 shard", n)
		}
		c.shards = n
		return nil
	}
}

// WithExchangeRounds sets how many ghost-label exchange rounds follow the
// first local sweep. r must be >= 0; 0 disables the exchange (halo edges
// still contribute, but boundary labels stay frozen singletons). Default 2.
func WithExchangeRounds(r int) ShardOption {
	return func(c *shardConfig) error {
		if r < 0 {
			return fmt.Errorf("grappolo: WithExchangeRounds(%d): rounds cannot be negative", r)
		}
		c.rounds = r
		return nil
	}
}

// WithPartition selects the partitioning strategy. Default PartitionBlock.
func WithPartition(m PartitionMode) ShardOption {
	return func(c *shardConfig) error {
		switch m {
		case PartitionBlock, PartitionArcs:
			c.mode = m
			return nil
		}
		return fmt.Errorf("grappolo: WithPartition(%v): unknown mode", m)
	}
}

// NewSharded wraps pool in a sharded serving tier. Configuration errors are
// returned, never coerced; a pool configured for the CPM objective is
// rejected (the seeded shard sweep is modularity-only).
func NewSharded(pool *Pool, sopts ...ShardOption) (*Sharded, error) {
	if pool == nil {
		return nil, fmt.Errorf("grappolo: NewSharded needs a non-nil *Pool")
	}
	if pool.opts.Objective == core.ObjCPM {
		return nil, fmt.Errorf("grappolo: NewSharded supports the modularity objective only")
	}
	c := shardConfig{shards: pool.Size(), rounds: 2, mode: PartitionBlock}
	for _, o := range sopts {
		if o == nil {
			return nil, fmt.Errorf("grappolo: nil ShardOption")
		}
		if err := o(&c); err != nil {
			return nil, err
		}
	}
	return &Sharded{
		pool: pool,
		opts: shard.Options{
			Shards:  c.shards,
			Rounds:  c.rounds,
			Mode:    c.mode,
			Workers: pool.opts.Workers,
		},
	}, nil
}

// enginePool implements tier: a Sharded serves from the wrapped pool.
func (s *Sharded) enginePool() *Pool {
	if s == nil {
		return nil
	}
	return s.pool
}

// Stats returns the wrapped pool's cumulative counters. Led counts engine
// checkouts, so one sharded detection contributes one run per shard sweep
// plus one for the master merge.
func (s *Sharded) Stats() PoolStats { return s.pool.Stats() }

// Detect runs a sharded detection on g and returns a fresh Result. See
// Detector.Detect for the cancellation contract.
func (s *Sharded) Detect(ctx context.Context, g *Graph) (*Result, error) {
	return s.DetectInto(ctx, g, nil)
}

// DetectInto is Detect recycling a caller-provided Result (see
// Detector.DetectInto). The Result carries the fold of the sharded
// pipeline: TotalIterations sums every shard sweep iteration plus the
// master merge's; Phases, Timing and Levels are not populated (the shard
// pipeline has no single engine trace).
func (s *Sharded) DetectInto(ctx context.Context, g *Graph, res *Result) (*Result, error) {
	if err := checkGraph(g); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sres, err := shard.Run(ctx, g, s.opts, poolEngines{s.pool})
	if err != nil {
		return nil, err
	}
	if res == nil {
		res = &Result{}
	}
	res.Membership = append(res.Membership[:0], sres.Membership...)
	res.NumCommunities = sres.NumCommunities
	res.Modularity = sres.Modularity
	res.TotalIterations = sres.LocalIterations + sres.MergeIterations
	res.Phases = res.Phases[:0]
	res.Timing = core.Breakdown{}
	res.Levels = nil
	res.Degraded = false
	res.Incremental = false
	return res, nil
}

// String describes the tier for logs.
func (s *Sharded) String() string {
	return fmt.Sprintf("grappolo.Sharded(shards=%d, rounds=%d, mode=%s, pool=%d)",
		s.opts.Shards, s.opts.Rounds, s.opts.Mode, s.pool.Size())
}

// poolEngines adapts the Pool's permit + size-classed checkout to the shard
// runner's Engines seam: every shard sweep and the master merge queue
// FIFO-fair for a pool permit exactly like a Detect request, and a release
// with ok=false quarantines the engine just like a panicking pool run.
type poolEngines struct{ p *Pool }

func (pe poolEngines) Acquire(ctx context.Context, n int) (*core.Engine, func(ok bool), error) {
	if err := pe.p.sem.Acquire(ctx); err != nil {
		pe.p.canceled.Add(1)
		return nil, nil, err
	}
	e := pe.p.take(n)
	pe.p.led.Add(1)
	released := false
	release := func(ok bool) {
		if released {
			return
		}
		released = true
		if ok {
			// A non-panicking run has grown the engine's scratch to this
			// shape (the shard sweep resets scratch before its first
			// cancellation point), so the size class is current.
			if n > e.maxN {
				e.maxN = n
			}
			pe.p.put(e)
		} else {
			pe.p.faulted.Add(1)
		}
		pe.p.sem.Release()
	}
	return e.eng, release, nil
}
