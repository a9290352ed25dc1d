package core

import "testing"

// TestOptionsValidate pins the bugfix satellite: the settings Defaults used
// to clamp or ignore silently are now reported as errors.
func TestOptionsValidate(t *testing.T) {
	valid := []Options{
		{},
		Baseline(4),
		BaselineVF(0),
		BaselineVFColor(8),
		PLM(2),
		{Objective: ObjCPM, CPMGamma: 0.5},
		{Coloring: ColorMultiPhase, ColorBalance: BalanceAuto},
	}
	for i, o := range valid {
		if err := o.Validate(); err != nil {
			t.Errorf("valid[%d]: unexpected error %v", i, err)
		}
	}

	invalid := map[string]Options{
		"negative-workers":     {Workers: -1},
		"negative-colored-thr": {ColoredThreshold: -1e-3},
		"negative-final-thr":   {FinalThreshold: -1e-9},
		"negative-cutoff":      {ColoringVertexCutoff: -5},
		"negative-maxiter":     {MaxIterations: -1},
		"negative-maxphases":   {MaxPhases: -1},
		"negative-resolution":  {Resolution: -1},
		"bad-coloring-mode":    {Coloring: ColoringMode(99)},
		"bad-balance-mode":     {ColorBalance: ColorBalance(99)},
		"bad-objective":        {Objective: Objective(99)},
		"cpm-no-gamma":         {Objective: ObjCPM},
		"cpm-negative-gamma":   {Objective: ObjCPM, CPMGamma: -1},
		"cpm-vf":               {Objective: ObjCPM, CPMGamma: 0.5, VertexFollowing: true},
		"cpm-vfchain":          {Objective: ObjCPM, CPMGamma: 0.5, VFChainCompression: true},
		"chain-without-vf":     {VFChainCompression: true},
		"async-colored":        {Async: true, Coloring: ColorMultiPhase},
	}
	for name, o := range invalid {
		if err := o.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid options", name)
		}
	}
}

// TestNewEnginePanicsOnInvalidOptions pins the internal entry point's
// fail-fast contract (the public grappolo.New returns these as errors).
func TestNewEnginePanicsOnInvalidOptions(t *testing.T) {
	assertPanics(t, func() { NewEngine(Options{Workers: -2}) })
	assertPanics(t, func() { NewEngine(Options{Objective: ObjCPM}) })
}
