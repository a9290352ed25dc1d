package grappolo

import (
	"errors"
	"fmt"
	"math"
)

// ErrNilGraph is returned by every detection entry point (Detector, Pool,
// Sharded, Cache, Guard, DetectSerial) and by NewStream handed a nil *Graph. Validating at the
// boundary turns what used to be a panic deep inside the engine into a
// typed, checkable request error. A graph whose total edge weight is not a
// finite number is refused at the same boundary with an *InputError.
var ErrNilGraph = errors.New("grappolo: nil graph")

// ErrOverloaded is the load-shedding sentinel: a Guard returns an error
// matching it (via errors.Is) when a request is refused instead of served
// because the admission queue is at its configured depth bound. Shed
// errors are produced FAST by design: the caller learns without queueing
// that it should retry later or fail over, rather than piling onto the
// admission queue.
var ErrOverloaded = errors.New("grappolo: overloaded")

// ErrEngineFault is the panic-quarantine sentinel: errors.Is reports it
// for any error produced by recovering an engine-run panic at a serving
// boundary — the Guard's recovery of a request that panicked, and the
// error a Cache fans out to followers whose leader panicked. The
// faulted engine itself is quarantined by the Pool (never returned to the
// idle list); the serving stack stays usable.
var ErrEngineFault = errors.New("grappolo: engine fault")

// EngineFaultError carries the recovered panic value of a faulted engine
// run. It matches ErrEngineFault under errors.Is.
type EngineFaultError struct {
	// Panic is the value the engine run panicked with.
	Panic any
}

// Error describes the fault.
func (e *EngineFaultError) Error() string {
	return fmt.Sprintf("grappolo: engine fault: recovered panic: %v", e.Panic)
}

// Is matches the ErrEngineFault sentinel.
func (e *EngineFaultError) Is(target error) bool { return target == ErrEngineFault }

// ErrInvalidInput is matched (errors.Is) by the error Modularity,
// AnalyzeCommunities, CommunitySizes, Stream.AddEdge and the detection entry
// points return for an argument they refuse: a membership that does not give
// each of the graph's vertices one label in [0, g.N()) (Modularity,
// AnalyzeCommunities), a label outside [0, len(membership))
// (CommunitySizes), a resolution that is not a finite number (Modularity), a threshold that
// is not a finite number (DetectSerial), an edge with a negative endpoint
// (Stream.AddEdge), or a graph whose total edge weight is not a finite
// number (every detection entry point and NewStream: a Builder keeps NaN
// and +Inf weights, and no run on them would end). The concrete value is an
// *InputError naming the argument. A nil graph is reported as ErrNilGraph
// instead.
var ErrInvalidInput = errors.New("grappolo: invalid input")

// InputError reports an argument Modularity, AnalyzeCommunities,
// CommunitySizes or a detection entry point refuses, and why. It matches ErrInvalidInput under
// errors.Is.
type InputError struct {
	// Arg names the argument: "membership", "gamma", "threshold", "edge"
	// or "graph".
	Arg string
	// Reason says what is wrong with it.
	Reason string
}

// Error describes the refused argument.
func (e *InputError) Error() string { return "grappolo: invalid " + e.Arg + ": " + e.Reason }

// Is matches the ErrInvalidInput sentinel.
func (e *InputError) Is(target error) bool { return target == ErrInvalidInput }

// checkGraph is every detection entry point's input check: ErrNilGraph for
// a nil g, and an *InputError when g's total edge weight is not a finite
// number. It is O(1): the total is cached when the graph is built.
func checkGraph(g *Graph) error {
	if g == nil {
		return ErrNilGraph
	}
	if w := g.TotalWeight(); math.IsNaN(w) || math.IsInf(w, 0) {
		return &InputError{Arg: "graph", Reason: fmt.Sprintf("total edge weight %v is not a finite number", w)}
	}
	return nil
}

// overloadError is the concrete shed error: it matches ErrOverloaded and
// names which admission bound was exceeded.
type overloadError struct{ reason string }

func (e *overloadError) Error() string { return "grappolo: overloaded: " + e.reason }

func (e *overloadError) Is(target error) bool { return target == ErrOverloaded }
