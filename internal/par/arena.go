package par

// Resize returns s with length exactly n, reusing its backing array when the
// capacity allows and allocating a fresh one otherwise. Contents are
// unspecified — callers that need zeroed or initialized storage must fill it.
// It is the growth primitive behind every pooled scratch buffer: after the
// first use at a given size, later uses of the same (or any smaller) size
// never allocate.
func Resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Arena is a tiny bump allocator for short-lived []int64 scratch slices
// whose count or sizes vary call to call (per-worker histograms: their
// count follows the worker count, their size the color or community count),
// so they do not fit a single named pooled buffer. Allocations are carved
// off one backing array; Reset recycles everything at once in O(1). The
// arena remembers the total demand of the previous cycle and pre-grows on
// Reset, so a warmed arena serves a same-shaped cycle with zero
// allocations.
//
// An Arena is not safe for concurrent use: take slices serially (before
// fanning work out to workers), then hand them to the workers.
type Arena struct {
	buf    []int64
	off    int
	demand int // total items taken since the last reset
}

// Reset recycles all outstanding slices. Slices taken before the Reset must
// no longer be used: they alias storage that later takes will hand out again.
func (a *Arena) Reset() {
	// Pre-grow to the previous cycle's high-water demand so one warm cycle
	// suffices to make identical later cycles allocation-free even when the
	// first cycle spilled across multiple backing arrays.
	if a.demand > len(a.buf) {
		a.buf = make([]int64, a.demand)
	}
	a.off = 0
	a.demand = 0
}

// Int64 returns a zeroed []int64 of length n carved from the arena.
func (a *Arena) Int64(n int) []int64 {
	a.demand += n
	if a.off+n > len(a.buf) {
		size := 2 * len(a.buf)
		if size < n {
			size = n
		}
		// Slices taken earlier in this cycle keep referencing the old backing
		// array; only future takes come from the new one.
		a.buf = make([]int64, size)
		a.off = 0
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	clear(s)
	return s
}
