package grappolo

import (
	"fmt"

	"grappolo/internal/core"
)

// Option configures a Detector (or a Pool, or a Stream's full re-detections).
// Options are applied in order by New; an invalid value or an invalid
// combination makes New return an error instead of silently coercing the
// configuration — the public API never falls back to a default the caller
// did not ask for.
type Option func(*config) error

// config accumulates option applications before validation. It wraps the
// internal core.Options so the public surface stays decoupled from the
// internal struct layout.
type config struct {
	opts core.Options
}

// ColoringKind selects the graph-coloring preprocessing applied before the
// parallel sweeps (§5.2 of the paper): vertices of one color set move
// concurrently, sets are processed in sequence.
type ColoringKind int

const (
	// NoColoring disables coloring preprocessing (the paper's "baseline"
	// variants): every sweep reads the previous iteration's snapshot.
	NoColoring ColoringKind = iota
	// Distance1 is the speculate-and-resolve greedy distance-1 coloring —
	// the paper's headline configuration.
	Distance1
)

// BalanceMode selects whether (and by which load metric) color sets are
// rebalanced after coloring — the paper's proposed fix for skewed color-set
// sizes (§6.2).
type BalanceMode int

const (
	// BalanceOff applies no rebalancing.
	BalanceOff BalanceMode = iota
	// BalanceVertices evens per-set vertex counts.
	BalanceVertices
	// BalanceArcs evens per-set total arc counts — the metric the colored
	// sweep's work is actually proportional to.
	BalanceArcs
	// BalanceAuto measures each phase's arc-load skew and applies the arc
	// repair only when its ArcRSD exceeds 0.5.
	BalanceAuto
)

// Workers sets the number of parallel workers used by Detect. Zero (the
// default) selects all CPUs; negative counts are an error.
func Workers(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("grappolo: negative worker count %d (0 selects all CPUs)", n)
		}
		c.opts.Workers = n
		return nil
	}
}

// VertexFollowing enables the VF preprocessing step (§5.3): single-degree
// vertices are merged into their neighbor before the first phase. Only
// valid under the modularity objective.
func VertexFollowing() Option {
	return func(c *config) error {
		c.opts.VertexFollowing = true
		return nil
	}
}

// VFChains extends VertexFollowing (which it implies) with repeated passes
// that compress hanging chains until no single-degree vertex remains.
func VFChains() Option {
	return func(c *config) error {
		c.opts.VertexFollowing = true
		c.opts.VFChainCompression = true
		return nil
	}
}

// Coloring enables coloring preprocessing of the given kind under the
// paper's multi-phase policy (§6.1): phases stay colored while they deliver
// at least the colored threshold of gain (default 1e-3), then the remaining
// phases run uncolored to the final threshold. By default no vertex cutoff
// applies; ColoringCutoff adds one. The paper used a cutoff of 100,000 and
// a threshold of 1e-2 on inputs of 325K–52M vertices.
// Coloring(NoColoring) disables preprocessing explicitly.
func Coloring(k ColoringKind) Option {
	return func(c *config) error {
		switch k {
		case NoColoring:
			c.opts.Coloring = core.ColorOff
		case Distance1:
			c.opts.Coloring = core.ColorMultiPhase
		default:
			return fmt.Errorf("grappolo: unknown ColoringKind %d", k)
		}
		return nil
	}
}

// FirstPhaseColoring restricts an enabled coloring to the first phase only
// (the paper's Table 4 comparison scheme). Requires Coloring.
func FirstPhaseColoring() Option {
	return func(c *config) error {
		if c.opts.Coloring == core.ColorOff {
			return fmt.Errorf("grappolo: FirstPhaseColoring requires Coloring(...) before it")
		}
		c.opts.Coloring = core.ColorFirstPhase
		return nil
	}
}

// ColoringCutoff stops coloring once a phase's input has fewer than n
// vertices. By default there is no cutoff and only the colored threshold
// ends coloring; the paper used 100,000 on inputs of 325K–52M vertices.
// n must be positive.
func ColoringCutoff(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("grappolo: ColoringCutoff must be positive, got %d", n)
		}
		c.opts.ColoringVertexCutoff = n
		return nil
	}
}

// Balance selects the color-set rebalancing mode (§6.2).
func Balance(m BalanceMode) Option {
	return func(c *config) error {
		switch m {
		case BalanceOff:
			c.opts.ColorBalance = core.BalanceOff
		case BalanceVertices:
			c.opts.ColorBalance = core.BalanceVertices
		case BalanceArcs:
			c.opts.ColorBalance = core.BalanceArcs
		case BalanceAuto:
			c.opts.ColorBalance = core.BalanceAuto
		default:
			return fmt.Errorf("grappolo: unknown BalanceMode %d", m)
		}
		return nil
	}
}

// Thresholds sets the modularity-gain termination thresholds: colored for
// colored phases (default 1e-3; the paper used 1e-2 on inputs of
// 325K–52M vertices), final for uncolored phases (paper default 1e-6).
// Zero keeps a default; negative values are an error.
func Thresholds(colored, final float64) Option {
	return func(c *config) error {
		if colored < 0 || final < 0 {
			return fmt.Errorf("grappolo: negative threshold (colored=%v, final=%v)", colored, final)
		}
		c.opts.ColoredThreshold = colored
		c.opts.FinalThreshold = final
		return nil
	}
}

// Resolution sets the γ multiplier on modularity's null-model term
// (1 = standard modularity). Must be positive.
func Resolution(gamma float64) Option {
	return func(c *config) error {
		if gamma <= 0 {
			return fmt.Errorf("grappolo: Resolution must be positive, got %v", gamma)
		}
		c.opts.Resolution = gamma
		return nil
	}
}

// CPM switches the objective to the constant Potts model with resolution
// gamma (> 0). Incompatible with VertexFollowing/VFChains: Lemma 3 (the
// VF optimality argument) is a modularity result.
func CPM(gamma float64) Option {
	return func(c *config) error {
		if gamma <= 0 {
			return fmt.Errorf("grappolo: CPM resolution must be positive, got %v", gamma)
		}
		c.opts.Objective = core.ObjCPM
		c.opts.CPMGamma = gamma
		return nil
	}
}

// MaxIterations caps iterations per phase (0 = unlimited).
func MaxIterations(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("grappolo: negative MaxIterations %d", n)
		}
		c.opts.MaxIterations = n
		return nil
	}
}

// MaxPhases caps the number of phases (0 = unlimited).
func MaxPhases(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("grappolo: negative MaxPhases %d", n)
		}
		c.opts.MaxPhases = n
		return nil
	}
}

// KeepHierarchy records the original-vertex community assignment after each
// phase in Result.Levels — the dendrogram the Louvain method produces.
func KeepHierarchy() Option {
	return func(c *config) error {
		c.opts.KeepHierarchy = true
		return nil
	}
}

// NoMinLabel disables the minimum-label tie-breaks (ablation only; the
// paper's baseline always applies them).
func NoMinLabel() Option {
	return func(c *config) error {
		c.opts.DisableMinLabel = true
		return nil
	}
}

// Async switches iterations to asynchronous live-state local moves — the
// PLM emulation of §7. Incompatible with Coloring. Output varies with
// scheduling; combine with NoMinLabel for the faithful PLM comparison.
func Async() Option {
	return func(c *config) error {
		c.opts.Async = true
		return nil
	}
}

// buildOptions applies opts in order and validates the resulting
// configuration, returning the internal options both raw (for engines,
// which apply the paper defaults themselves) and an error carrying the
// first invalid setting.
func buildOptions(opts []Option) (core.Options, error) {
	var c config
	for _, o := range opts {
		if o == nil {
			return core.Options{}, fmt.Errorf("grappolo: nil Option")
		}
		if err := o(&c); err != nil {
			return core.Options{}, err
		}
	}
	if err := validateConfig(&c); err != nil {
		return core.Options{}, err
	}
	return c.opts, nil
}

// validateConfig runs the core validation plus the public-surface
// coherence checks: an option that only acts when coloring is enabled must
// not silently do nothing (the same contract Validate enforces for
// VFChainCompression-without-VertexFollowing).
func validateConfig(c *config) error {
	if err := c.opts.Validate(); err != nil {
		return err
	}
	if c.opts.Coloring == core.ColorOff {
		if c.opts.ColorBalance != core.BalanceOff {
			return fmt.Errorf("grappolo: Balance requires Coloring(...)")
		}
		if c.opts.ColoringVertexCutoff != 0 {
			return fmt.Errorf("grappolo: ColoringCutoff requires Coloring(...)")
		}
	}
	return nil
}
