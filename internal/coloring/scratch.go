package coloring

import "grappolo/internal/par"

// Scratch owns the reusable working state of the coloring kernels: the
// color, tentative-color and worklist arrays, the per-worker flat
// neighbor-color markers, the conflict flags, the rebalance proposal state,
// and the backing storage of the assembled Coloring (Colors, Sets and the
// Coloring header itself). Buffers are sized by high-water mark, so a
// Scratch reused across calls of the same shape allocates nothing.
//
// Ownership rules:
//
//   - The *Coloring returned by a ...With kernel aliases the Scratch: it is
//     valid until the NEXT kernel call on the same Scratch. Callers that keep
//     a coloring across calls must copy it (or use the scratch-free entry
//     points, which allocate a private Scratch per call).
//   - One Scratch serves one kernel call at a time. In particular, a base
//     coloring and its Rebalance repair that must both stay alive need two
//     Scratches (core.Engine holds one for the base coloring and one for the
//     rebalancer).
//   - A Scratch is not safe for concurrent use.
type Scratch struct {
	// shared kernel state
	tent      []int32 // speculative rounds' tentative colors
	worklist  []int32
	conflicts []bool
	markers   []*par.Marker
	// rebalance
	rbColors []int32
	proposed []int32
	dropped  []bool
	order    []int32
	loads    []int64
	hist     [][]int64
	arena    par.Arena
	// loop-body contexts, embedded here so the kernels pass an 8-byte
	// pointer: Go captures closure variables larger than 128 bytes by
	// reference, which would heap-move a by-value context at every par.*Ctx
	// call (the goroutine path captures the parameter).
	spc specCtx
	rbc rebalCtx
	// assembled result (aliased by the returned *Coloring)
	colors    []int32
	setCounts []int64
	setBuf    []int32
	sets      [][]int32
	out       Coloring
}

// NewScratch returns an empty Scratch; every buffer is grown on first use.
func NewScratch() *Scratch { return &Scratch{} }

// growMarkers ensures at least nw markers exist, each covering at least
// universe keys (0 = grown lazily by the kernel).
func (s *Scratch) growMarkers(nw, universe int) []*par.Marker {
	for len(s.markers) < nw {
		s.markers = append(s.markers, par.NewMarker(0))
	}
	if universe > 0 {
		for _, m := range s.markers[:nw] {
			m.Grow(universe)
		}
	}
	return s.markers
}

// assembleInto builds the Coloring result inside s. colors must already live
// in s (or be caller-owned storage that outlives the result); Sets are carved
// from one pooled backing array, members ascending per color exactly like the
// allocating assemble path always produced.
func assembleInto(s *Scratch, colors []int32, numColors, rounds int) *Coloring {
	counts := par.Resize(s.setCounts, numColors)
	s.setCounts = counts
	for i := range counts {
		counts[i] = 0
	}
	for _, c := range colors {
		counts[c]++
	}
	setBuf := par.Resize(s.setBuf, len(colors))
	s.setBuf = setBuf
	sets := par.Resize(s.sets, numColors)
	s.sets = sets
	var off int64
	for c := range sets {
		sets[c] = setBuf[off : off : off+counts[c]]
		off += counts[c]
	}
	for i, c := range colors {
		sets[c] = append(sets[c], int32(i))
	}
	s.out = Coloring{Colors: colors, NumColors: numColors, Sets: sets, Rounds: rounds}
	return &s.out
}

func assemble(colors []int32, numColors, rounds int) *Coloring {
	return assembleInto(NewScratch(), colors, numColors, rounds)
}
