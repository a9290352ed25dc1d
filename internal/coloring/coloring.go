// Package coloring implements the parallel graph-coloring preprocessing the
// paper uses to serialize conflicting community updates (§5.2): vertices of
// one color form an independent set, so processing one color set at a time
// (parallel within the set) guarantees no two adjacent vertices decide
// concurrently.
//
// The parallel algorithm is the speculate-and-resolve greedy of Catalyürek
// et al. (the paper's reference [12]): all uncolored vertices pick the
// smallest color not used by their neighbors concurrently (tentatively),
// then conflicts (adjacent equal colors) are detected and the loser is
// uncolored for the next round. A tentative color reads only colors that
// cannot change under it, so for a given worker count the coloring is the
// same on every run (see ParallelWith). The package also provides the
// balanced variant the paper proposes as future work for skewed color-set
// sizes (§6.2, uk-2002 discussion).
package coloring

import (
	"fmt"
	"math"

	"grappolo/internal/graph"
	"grappolo/internal/par"
)

// Coloring is the result of a coloring run: a color per vertex in
// [0, NumColors) and the vertex sets grouped by color.
type Coloring struct {
	Colors    []int32   // color of each vertex
	NumColors int       // number of distinct colors
	Sets      [][]int32 // Sets[c] lists the vertices of color c, ascending
	Rounds    int       // speculative rounds used (1 for serial greedy)
}

// Stats summarizes a coloring's color-set size distribution. The paper uses
// the count and relative standard deviation of set sizes to explain the
// poor speedup on uk-2002 (943 colors, RSD 18.876). The arc fields describe
// the per-set total ARC counts — the metric the colored sweep's work is
// actually proportional to; they are populated only by ComputeStatsOn,
// which has the graph to count arcs from.
type Stats struct {
	NumColors int
	MaxSet    int
	MinSet    int
	AvgSet    float64
	RSD       float64 // stddev(set size) / mean(set size)
	MaxArcs   int64
	MinArcs   int64
	AvgArcs   float64
	ArcRSD    float64 // stddev(set arc count) / mean(set arc count)
}

// ComputeStats derives the vertex-count distribution statistics of c. The
// arc fields stay zero; use ComputeStatsOn for them.
func (c *Coloring) ComputeStats() Stats {
	st := Stats{NumColors: c.NumColors, MinSet: math.MaxInt}
	if c.NumColors == 0 {
		st.MinSet = 0
		return st
	}
	var sum, sumSq float64
	for _, set := range c.Sets {
		s := len(set)
		if s > st.MaxSet {
			st.MaxSet = s
		}
		if s < st.MinSet {
			st.MinSet = s
		}
		sum += float64(s)
		sumSq += float64(s) * float64(s)
	}
	mean := sum / float64(c.NumColors)
	st.AvgSet = mean
	variance := sumSq/float64(c.NumColors) - mean*mean
	if variance < 0 {
		variance = 0
	}
	if mean > 0 {
		st.RSD = math.Sqrt(variance) / mean
	}
	return st
}

// ComputeStatsOn derives the full distribution statistics of c on g,
// including the per-set total arc counts (§6.2's skew metric weighted the
// way the colored sweep actually pays for it).
func (c *Coloring) ComputeStatsOn(g *graph.Graph) Stats {
	st := c.ComputeStats()
	if c.NumColors == 0 {
		return st
	}
	st.MinArcs = math.MaxInt64
	var sum, sumSq float64
	for _, set := range c.Sets {
		var arcs int64
		for _, v := range set {
			arcs += int64(g.OutDegree(int(v)))
		}
		if arcs > st.MaxArcs {
			st.MaxArcs = arcs
		}
		if arcs < st.MinArcs {
			st.MinArcs = arcs
		}
		sum += float64(arcs)
		sumSq += float64(arcs) * float64(arcs)
	}
	mean := sum / float64(c.NumColors)
	st.AvgArcs = mean
	variance := sumSq/float64(c.NumColors) - mean*mean
	if variance < 0 {
		variance = 0
	}
	if mean > 0 {
		st.ArcRSD = math.Sqrt(variance) / mean
	}
	return st
}

// String renders the stats compactly. Arc fields appear only when populated
// (ComputeStatsOn).
func (s Stats) String() string {
	out := fmt.Sprintf("colors=%d sizes[min=%d avg=%.1f max=%d] rsd=%.3f",
		s.NumColors, s.MinSet, s.AvgSet, s.MaxSet, s.RSD)
	if s.MaxArcs > 0 {
		out += fmt.Sprintf(" arcs[min=%d avg=%.1f max=%d] arcrsd=%.3f",
			s.MinArcs, s.AvgArcs, s.MaxArcs, s.ArcRSD)
	}
	return out
}

// Greedy computes a serial first-fit distance-1 coloring in vertex order.
// It is the reference implementation used by tests and small graphs.
func Greedy(g *graph.Graph) *Coloring {
	n := g.N()
	colors := make([]int32, n)
	for i := range colors {
		colors[i] = -1
	}
	var mark []bool
	numColors := 0
	for i := 0; i < n; i++ {
		nbr, _ := g.Neighbors(i)
		if len(mark) < numColors+1 {
			mark = make([]bool, numColors+1)
		}
		use := mark[:numColors+1]
		for t := range use {
			use[t] = false
		}
		for _, j := range nbr {
			if int(j) != i && colors[j] >= 0 {
				use[colors[j]] = true
			}
		}
		c := int32(0)
		for int(c) < len(use) && use[c] {
			c++
		}
		colors[i] = c
		if int(c) == numColors {
			numColors++
		}
	}
	return assemble(colors, numColors, 1)
}

// Parallel computes a distance-1 coloring with p workers using speculative
// rounds. The result is a valid coloring, the same on every run for a given
// p; the exact colors may vary with p (as the paper notes for its
// coloring-dependent outputs). With one worker it is Greedy's coloring.
func Parallel(g *graph.Graph, p int) *Coloring {
	return ParallelWith(g, p, nil)
}

// ParallelWith is Parallel drawing every working buffer — including the
// returned Coloring's storage — from s (see Scratch for ownership rules).
// A nil s allocates a private scratch, making it equivalent to Parallel.
//
// Each round splits the worklist into the chunks par.ForChunkWorkerCtx
// cuts for p workers, which depend only on p and the worklist's length.
// A worklist vertex takes its tentative color from the colors committed in
// earlier rounds and from the tentative colors of the vertices before it in
// its own chunk, which one worker assigns in order; it never reads a color
// another worker is assigning. Conflicts can then only cross chunks, and
// the higher id loses. Which worker runs which chunk, and when, changes
// nothing, so the coloring repeats exactly.
func ParallelWith(g *graph.Graph, p int, s *Scratch) *Coloring {
	if s == nil {
		s = NewScratch()
	}
	n := g.N()
	colors := par.Resize(s.colors, n)
	s.colors = colors
	for i := range colors {
		colors[i] = -1
	}
	tent := par.Resize(s.tent, n)
	s.tent = tent
	worklist := par.Resize(s.worklist, n)
	s.worklist = worklist
	for i := range worklist {
		worklist[i] = int32(i)
	}
	conflictFlags := par.Resize(s.conflicts, n)
	s.conflicts = conflictFlags
	// Per-worker flat color marks, reused (and kept grown) across chunks,
	// rounds and — via the scratch — whole colorings. Later rounds shrink the
	// worklist, so this count always covers the loop's effective worker
	// indices.
	markers := s.growMarkers(par.Workers(p, n), 0)
	rounds := 0
	for len(worklist) > 0 {
		rounds++
		ctx := &s.spc
		*ctx = specCtx{g: g, colors: colors, tent: tent, worklist: worklist,
			markers: markers, flags: conflictFlags[:len(worklist)]}
		// Phase 1: tentative colors. Each worker marks the colors its vertex
		// can see in its flat generation-stamped marker and takes the
		// smallest unmarked one.
		par.ForChunkWorkerCtx(ctx, len(worklist), p, 0, speculatePhase)
		// Phase 2: conflict detection over the now stable tentative colors;
		// of two conflicting vertices the higher id loses.
		par.ForChunkCtx(ctx, len(worklist), p, 0, conflictPhase)
		// Commit the winners; the losers stay uncolored and form the next
		// worklist, still in ascending order.
		next := worklist[:0]
		for t, f := range ctx.flags {
			i := worklist[t]
			if f {
				next = append(next, i)
			} else {
				colors[i] = tent[i]
			}
		}
		worklist = next
	}
	s.spc = specCtx{} // drop graph/slice references until the next kernel call
	numColors := 0
	for _, c := range colors {
		if int(c)+1 > numColors {
			numColors = int(c) + 1
		}
	}
	return assembleInto(s, colors, numColors, rounds)
}

// specCtx carries one speculative round's state into the captureless loop
// bodies, passed by pointer (see par.ForChunkWorkerCtx and the Scratch field
// comment: capturing closures — or by-value contexts over 128 bytes — would
// heap-allocate at every round even on a single worker). colors holds the
// committed colors (-1 for every worklist vertex) and does not change during
// a round; tent holds the worklist vertices' tentative colors.
type specCtx struct {
	g        *graph.Graph
	colors   []int32
	tent     []int32
	worklist []int32
	markers  []*par.Marker
	flags    []bool
}

// seen returns the color worklist vertex i, the chunk of which starts at
// worklist vertex first, can see on vertex j: j's committed color, j's
// tentative color when j precedes i in the same chunk, and otherwise -1.
// The worklist is ascending and holds every uncolored vertex, so an
// uncolored j in [first, i) is exactly a vertex of i's chunk before it.
//
//grappolo:hotpath
func (c *specCtx) seen(j, first, i int32) int32 {
	if cc := c.colors[j]; cc >= 0 {
		return cc
	}
	if j >= first && j < i {
		return c.tent[j]
	}
	return -1
}

// clashes reports whether worklist vertex i loses to vertex j in conflict
// detection: j is also on the worklist, has a lower id and took the same
// tentative color.
//
//grappolo:hotpath
func (c *specCtx) clashes(j, i int32) bool {
	return j < i && c.colors[j] < 0 && c.tent[j] == c.tent[i]
}

// mark records color cc (ignored when negative) in marker m.
func mark(m *par.Marker, cc int32) {
	if cc < 0 {
		return
	}
	if int(cc) >= m.Universe() {
		m.Grow(int(cc) + 2) // Grow preserves this epoch's marks
	}
	m.Set(cc)
}

// smallestFree returns the smallest color m has not marked.
func smallestFree(m *par.Marker) int32 {
	cc := int32(0)
	for int(cc) < m.Universe() && m.Has(cc) {
		cc++
	}
	return cc
}

func speculatePhase(c *specCtx, w, lo, hi int) {
	used := c.markers[w]
	first := c.worklist[lo]
	for t := lo; t < hi; t++ {
		i := c.worklist[t]
		used.Reset()
		nbr, _ := c.g.Neighbors(int(i))
		for _, j := range nbr {
			mark(used, c.seen(j, first, i)) // j == i is never seen
		}
		c.tent[i] = smallestFree(used)
	}
}

func conflictPhase(c *specCtx, lo, hi int) {
	for t := lo; t < hi; t++ {
		i := c.worklist[t]
		conflict := false
		nbr, _ := c.g.Neighbors(int(i))
		for _, j := range nbr {
			if c.clashes(j, i) {
				conflict = true
				break
			}
		}
		c.flags[t] = conflict
	}
}

// Verify checks that colors form a valid distance-1 coloring of g.
func Verify(g *graph.Graph, colors []int32) error {
	if len(colors) != g.N() {
		return fmt.Errorf("coloring: length %d != n %d", len(colors), g.N())
	}
	for i := 0; i < g.N(); i++ {
		if colors[i] < 0 {
			return fmt.Errorf("coloring: vertex %d uncolored", i)
		}
		nbr, _ := g.Neighbors(i)
		for _, j := range nbr {
			if int(j) != i && colors[j] == colors[i] {
				return fmt.Errorf("coloring: conflict on edge {%d,%d} color %d", i, j, colors[i])
			}
		}
	}
	return nil
}
