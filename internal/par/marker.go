package par

// Marker is a reusable, allocation-free flat set over int32 keys drawn from
// a bounded universe — par.SparseAccum without the values: a generation
// stamp per key slot, where Reset is O(1) (bump the generation; every stamp
// goes stale) and membership is a single array compare. It backs the
// neighbor-color marking of the speculative coloring and the coloring
// rebalancer.
//
// A Marker is not safe for concurrent use; give each worker its own.
type Marker struct {
	mark []int32 // slot k is set iff mark[k] == gen
	gen  int32   // current epoch; starts at 1 so zeroed stamps are stale
}

// NewMarker returns a marker for keys in [0, universe).
func NewMarker(universe int) *Marker {
	if universe < 0 {
		universe = 0
	}
	return &Marker{mark: make([]int32, universe), gen: 1}
}

// Universe returns the current key-space size.
func (m *Marker) Universe() int { return len(m.mark) }

// Reset unsets every key in O(1) by bumping the generation.
func (m *Marker) Reset() {
	if m.gen == 1<<31-1 { // int32 exhaustion after ~2^31 Resets: re-zero stamps
		for i := range m.mark {
			m.mark[i] = 0
		}
		m.gen = 0
	}
	m.gen++
}

// Grow extends the key space to at least universe keys. Existing keys keep
// their state; new slots start unset (their zero stamp is always stale).
func (m *Marker) Grow(universe int) {
	if universe <= len(m.mark) {
		return
	}
	grown := make([]int32, universe)
	copy(grown, m.mark)
	m.mark = grown
}

// Set marks key k.
func (m *Marker) Set(k int32) { m.mark[k] = m.gen }

// Has reports whether k is marked in the current epoch.
func (m *Marker) Has(k int32) bool { return m.mark[k] == m.gen }
