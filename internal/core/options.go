// Package core implements Grappolo, the paper's parallel Louvain community
// detection (§5): lock-free parallel vertex sweeps driven by the previous
// iteration's community state (Algorithm 1), the singlet and generalized
// minimum-label heuristics (§5.1), distance-1 coloring with the multi-phase
// coloring policy (§5.2, §6.3), vertex-following preprocessing (§5.3), and
// a parallel graph rebuild between phases (§5.5).
package core

import (
	"fmt"
	"math"
	"time"
)

// ColoringMode selects how coloring preprocessing is applied across phases.
type ColoringMode int

const (
	// ColorOff disables coloring (the paper's "baseline" and
	// "baseline + VF" variants).
	ColorOff ColoringMode = iota
	// ColorFirstPhase colors only the first phase's input (the Table 4
	// "first phase coloring" comparison scheme).
	ColorFirstPhase
	// ColorMultiPhase applies coloring to every phase until the
	// inter-phase modularity gain drops below ColoredThreshold (§6.1, the
	// paper's default "baseline + VF + Color" policy), or, when
	// ColoringVertexCutoff is set, until a phase's input has fewer
	// vertices than the cutoff.
	ColorMultiPhase
)

// ColorBalance selects whether (and by which load metric) color sets are
// rebalanced after coloring — the paper's proposed fix for the uk-2002
// color-set skew (§6.2).
type ColorBalance int

const (
	// BalanceOff applies no rebalancing after coloring.
	BalanceOff ColorBalance = iota
	// BalanceVertices evens the per-color vertex counts (the balanced
	// coloring as the paper frames it).
	BalanceVertices
	// BalanceArcs evens the per-color total ARC counts. The colored sweep's
	// work is proportional to member arcs, not vertices, so this targets
	// the actual straggler cost on hub-skewed inputs.
	BalanceArcs
	// BalanceAuto measures the base coloring's arc-load skew each phase and
	// applies arc rebalancing only when its ArcRSD exceeds
	// BalanceAutoArcRSD — paying the repair exactly on the inputs (like
	// uk-2002) whose skew would otherwise serialize the colored sweeps, and
	// skipping it on already-balanced colorings.
	BalanceAuto
)

// BalanceAutoArcRSD is the per-phase ArcRSD above which BalanceAuto applies
// arc rebalancing. An evenly loaded coloring sits well below 0.5; the skewed
// colorings the paper blames for uk-2002's poor speedup (§6.2) sit far
// above it.
const BalanceAutoArcRSD = 0.5

// Objective selects the quality function being optimized.
type Objective int

const (
	// ObjModularity is Eq. (3) standard modularity — the paper's objective.
	ObjModularity Objective = iota
	// ObjCPM is the constant Potts model of Traag et al. (the paper's
	// ref. [6]), listed in future work (iv) as the resolution-limit-free
	// alternative. The penalty is γ·n_C(n_C−1)/2 over ORIGINAL vertex
	// counts; scores are normalized by m. Not compatible with
	// VertexFollowing (Lemma 3 is a modularity result).
	ObjCPM
)

// Options configure a parallel Louvain run. The zero value, passed through
// Defaults, reproduces the paper's baseline configuration.
type Options struct {
	// Workers is the number of parallel workers (threads in the paper's
	// terminology). <= 0 selects GOMAXPROCS.
	Workers int

	// VertexFollowing enables the VF preprocessing step (§5.3): all
	// single-degree vertices are merged into their neighbor before phase 1.
	VertexFollowing bool

	// VFChainCompression additionally repeats VF passes until no
	// single-degree vertex remains, compressing hanging chains (the
	// extension discussed at the end of §5.3).
	VFChainCompression bool

	// Coloring selects the coloring policy.
	Coloring ColoringMode

	// ColorBalance rebalances color-set loads after coloring (the paper's
	// proposed fix for the uk-2002 skew, §6.2): off, per-set vertex counts,
	// per-set total arc counts, or arc counts when the base coloring's
	// ArcRSD exceeds BalanceAutoArcRSD.
	ColorBalance ColorBalance

	// ColoredThreshold is the net modularity gain threshold used while
	// phases are colored: the first colored phase that gains less ends
	// coloring, and the remaining phases run uncolored to FinalThreshold.
	// Default 1e-3. The paper used 1e-2 (§6.1) on inputs of 325K–52M
	// vertices and compares 1e-4 with 1e-2 in Table 5.
	ColoredThreshold float64

	// FinalThreshold is the termination threshold for uncolored phases.
	// Paper default 1e-6.
	FinalThreshold float64

	// ColoringVertexCutoff stops coloring once a phase's input has fewer
	// vertices. 0 (the default) means no cutoff: the ColoredThreshold gain
	// test alone ends coloring. The paper used 100000 (§6.1) on inputs of
	// 325K–52M vertices.
	ColoringVertexCutoff int

	// MaxIterations caps iterations per phase; 0 = unlimited.
	MaxIterations int
	// MaxPhases caps phases; 0 = unlimited.
	MaxPhases int

	// Resolution is the γ multiplier on the null-model term (1 = the
	// paper's standard modularity).
	Resolution float64

	// Objective selects the quality function (default ObjModularity).
	Objective Objective
	// CPMGamma is the CPM resolution parameter (required > 0 when
	// Objective is ObjCPM; ignored otherwise).
	CPMGamma float64

	// KeepHierarchy records the community assignment of the ORIGINAL
	// vertices at the end of every phase in Result.Levels — the hierarchy
	// of communities the Louvain method produces (§3): each phase is a
	// coarser level of the dendrogram.
	KeepHierarchy bool

	// DisableMinLabel turns off the generalized minimum-label tie-break
	// (ablation only; the paper's baseline always applies it).
	DisableMinLabel bool

	// Async switches iterations to asynchronous parallel local moves over
	// the LIVE community state (no snapshot, no coloring): each vertex
	// reads whatever its neighbors' assignments are at that instant and
	// moves immediately. This emulates the PLM approach of Staudt &
	// Meyerhenke that the paper compares against in §7. Output varies with
	// scheduling; combine with DisableMinLabel for the faithful PLM
	// emulation.
	Async bool
}

// Defaults returns o with unset fields replaced by the defaults. They are
// the paper's, except for the coloring policy's stops: no vertex cutoff and
// a colored threshold of 1e-3 (see ColoredThreshold).
func (o Options) Defaults() Options {
	if o.ColoredThreshold <= 0 {
		o.ColoredThreshold = 1e-3
	}
	if o.FinalThreshold <= 0 {
		o.FinalThreshold = 1e-6
	}
	if o.Resolution <= 0 {
		o.Resolution = 1
	}
	return o
}

// Validate reports the configuration errors that Defaults would otherwise
// silently clamp or coerce. The zero value and every preset are valid; an
// error means the caller asked for a combination the pipeline either cannot
// honor (CPM without a gamma, VF under CPM) or would quietly reinterpret
// (negative counts clamped to defaults, a field that only acts when a
// sibling field is also set). NewEngine panics on these; the public
// grappolo package surfaces them as errors from grappolo.New.
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("core: negative Workers %d (0 selects all CPUs)", o.Workers)
	}
	// NaN slips through every sign test below (NaN < 0 is false), and a NaN
	// threshold would make the iteration loop's gain test never fire — an
	// unbounded run. Reject non-finite values outright.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"ColoredThreshold", o.ColoredThreshold},
		{"FinalThreshold", o.FinalThreshold},
		{"Resolution", o.Resolution},
		{"CPMGamma", o.CPMGamma},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s must be finite, got %v", f.name, f.v)
		}
	}
	if o.ColoredThreshold < 0 {
		return fmt.Errorf("core: negative ColoredThreshold %v", o.ColoredThreshold)
	}
	if o.FinalThreshold < 0 {
		return fmt.Errorf("core: negative FinalThreshold %v", o.FinalThreshold)
	}
	if o.ColoringVertexCutoff < 0 {
		return fmt.Errorf("core: negative ColoringVertexCutoff %d", o.ColoringVertexCutoff)
	}
	if o.MaxIterations < 0 {
		return fmt.Errorf("core: negative MaxIterations %d (0 means unlimited)", o.MaxIterations)
	}
	if o.MaxPhases < 0 {
		return fmt.Errorf("core: negative MaxPhases %d (0 means unlimited)", o.MaxPhases)
	}
	if o.Resolution < 0 {
		return fmt.Errorf("core: negative Resolution %v", o.Resolution)
	}
	if o.Coloring < ColorOff || o.Coloring > ColorMultiPhase {
		return fmt.Errorf("core: unknown ColoringMode %d", o.Coloring)
	}
	if o.ColorBalance < BalanceOff || o.ColorBalance > BalanceAuto {
		return fmt.Errorf("core: unknown ColorBalance %d", o.ColorBalance)
	}
	switch o.Objective {
	case ObjModularity:
	case ObjCPM:
		if o.CPMGamma <= 0 {
			return fmt.Errorf("core: ObjCPM requires CPMGamma > 0 (got %v)", o.CPMGamma)
		}
		if o.VertexFollowing || o.VFChainCompression {
			return fmt.Errorf("core: VertexFollowing requires the modularity objective (Lemma 3 does not hold under CPM)")
		}
	default:
		return fmt.Errorf("core: unknown Objective %d", o.Objective)
	}
	if o.VFChainCompression && !o.VertexFollowing {
		return fmt.Errorf("core: VFChainCompression requires VertexFollowing")
	}
	if o.Async && o.Coloring != ColorOff {
		return fmt.Errorf("core: Async (live-state PLM emulation) is incompatible with coloring")
	}
	return nil
}

// Baseline returns the paper's "baseline" variant (minimum-label only).
func Baseline(workers int) Options {
	return Options{Workers: workers}.Defaults()
}

// BaselineVF returns the "baseline + VF" variant.
func BaselineVF(workers int) Options {
	return Options{Workers: workers, VertexFollowing: true}.Defaults()
}

// BaselineVFColor returns the "baseline + VF + Color" variant, the paper's
// headline configuration.
func BaselineVFColor(workers int) Options {
	return Options{
		Workers:         workers,
		VertexFollowing: true,
		Coloring:        ColorMultiPhase,
	}.Defaults()
}

// PLM returns options emulating the label-propagation-style parallel
// Louvain (PLM) of Staudt & Meyerhenke (the paper's ref. [26]), used for
// the §7 related-work comparison: asynchronous live-state local moves
// without coloring or minimum-label heuristics.
func PLM(workers int) Options {
	return Options{
		Workers:         workers,
		Async:           true,
		DisableMinLabel: true,
	}.Defaults()
}

// Breakdown aggregates wall-clock time per algorithm step, the quantities
// plotted in Fig. 8 (coloring / clustering / rebuild) plus VF preprocessing.
type Breakdown struct {
	VF         time.Duration
	Coloring   time.Duration
	Clustering time.Duration
	Rebuild    time.Duration
}

// Total returns the sum of all components.
func (b Breakdown) Total() time.Duration {
	return b.VF + b.Coloring + b.Clustering + b.Rebuild
}

// PhaseStats traces one phase of the run: convergence trajectory for
// Figs. 3–6, per-step timings for Figs. 8–9, and coloring statistics for
// the §6.2 color-skew analysis.
type PhaseStats struct {
	VertexCount int
	Iterations  int
	// Modularity after each iteration of this phase.
	Modularity []float64
	Colored    bool
	NumColors  int
	// ColorSetRSD is the relative standard deviation of color-set vertex
	// counts (meaningful only when Colored).
	ColorSetRSD float64
	// ColorArcRSD is the relative standard deviation of color-set total
	// arc counts — the §6.2 skew metric weighted by actual sweep work
	// (meaningful only when Colored).
	ColorArcRSD  float64
	ColoringTime time.Duration
	ClusterTime  time.Duration
	RebuildTime  time.Duration
}

// Result is the output of a parallel Louvain run.
type Result struct {
	// Membership maps every vertex of the input graph to a dense community
	// id in [0, NumCommunities).
	Membership     []int32
	NumCommunities int
	// Modularity of Membership on the input graph.
	Modularity float64
	// Phases in execution order.
	Phases []PhaseStats
	// TotalIterations across phases (Tables 4 and 5 report these).
	TotalIterations int
	// Timing is the aggregate step breakdown.
	Timing Breakdown
	// Levels, when Options.KeepHierarchy is set, holds the original-vertex
	// community assignment after each phase: Levels[0] is the finest
	// clustering, Levels[len-1] equals Membership.
	Levels [][]int32
	// Degraded is set by the serving layer (grappolo.Guard) when this
	// result was produced under an overload fast profile rather than the
	// configured options: the membership is a valid clustering, but its
	// quality is approximate — fewer phases/iterations or coarser
	// termination thresholds. The engine itself always clears it.
	Degraded bool
	// Incremental is set by the serving layer (grappolo.Cache) when this
	// result was produced by routing an edge delta onto an incremental
	// maintainer seeded from a previously cached membership rather than by
	// a full engine run: the membership is a valid clustering of the
	// request's graph, but its quality tracks the incremental-Louvain
	// update (re-anchored by periodic full runs) instead of being
	// bit-identical to a cold detection. Incremental results carry no
	// Phases/Timing breakdown. The engine itself always clears it.
	Incremental bool
}
