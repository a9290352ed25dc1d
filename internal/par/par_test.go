package par

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 7, 1000} {
			hits := make([]int32, n)
			ForChunk(n, p, 0, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d n=%d: index %d hit %d times", p, n, i, h)
				}
			}
		}
	}
}

func TestForChunkDisjointCover(t *testing.T) {
	n := 12345
	hits := make([]int32, n)
	ForChunk(n, 4, 7, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestForStaticSlabsArePartition(t *testing.T) {
	n := 100
	seen := make([]int32, n)
	workers := make([]int32, 7) // one slot per worker id; no shared writes
	ForStatic(n, 7, func(w, lo, hi int) {
		atomic.AddInt32(&workers[w], 1)
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, h := range seen {
		if h != 1 {
			t.Fatalf("index %d covered %d times", i, h)
		}
	}
	for w, c := range workers {
		if c != 1 {
			t.Fatalf("worker %d ran %d slabs", w, c)
		}
	}
}

func halfMod97(_ struct{}, i int) float64 { return float64(i%97) * 0.5 }

func TestSumFloat64MatchesSerial(t *testing.T) {
	n := 10000
	want := 0.0
	for i := 0; i < n; i++ {
		want += halfMod97(struct{}{}, i)
	}
	for _, p := range []int{1, 2, 4, 16} {
		got := SumFloat64Ctx(struct{}{}, n, p, halfMod97)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("p=%d: got %v want %v", p, got, want)
		}
	}
}

func mod101(_ struct{}, i int) int64 { return int64((i * 7) % 101) }

func TestMaxInt64Ctx(t *testing.T) {
	n := 5000
	var wantMax int64
	for i := 0; i < n; i++ {
		wantMax = max(wantMax, mod101(struct{}{}, i))
	}
	if got := MaxInt64Ctx(struct{}{}, n, 4, mod101); got != wantMax {
		t.Fatalf("max: got %d want %d", got, wantMax)
	}
	if got := MaxInt64Ctx(struct{}{}, 0, 4, mod101); got != 0 {
		t.Fatalf("max of empty: got %d want 0", got)
	}
}

func TestExclusivePrefixSumSmallAndLarge(t *testing.T) {
	for _, n := range []int{0, 1, 5, 4096, 100000} {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i%13 + 1)
		}
		want := make([]int64, n)
		var run int64
		for i := 0; i < n; i++ {
			want[i] = run
			run += v[i]
		}
		got := make([]int64, n)
		copy(got, v)
		total := ExclusivePrefixSum(got, 4)
		if total != run {
			t.Fatalf("n=%d: total %d want %d", n, total, run)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: at %d got %d want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestExclusivePrefixSumProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		v := make([]int64, len(raw))
		for i, x := range raw {
			v[i] = int64(x)
		}
		ref := make([]int64, len(v))
		copy(ref, v)
		var run int64
		for i := range ref {
			ref[i], run = run, run+ref[i]
		}
		total := ExclusivePrefixSum(v, 8)
		if total != run {
			return false
		}
		for i := range v {
			if v[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddFloat64DenseArrayConcurrent(t *testing.T) {
	cells := make([]float64, 16)
	const total = 64000
	ForChunk(total, 8, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			AddFloat64(&cells[i%16], 1)
		}
	})
	for i, c := range cells {
		if c != total/16 {
			t.Fatalf("cell %d = %v, want %d", i, c, total/16)
		}
	}
}

func TestRNGDeterminismAndSplit(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed should give same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a2 := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal values", same)
	}
	// SplitN(i) must be stable and independent of call order.
	r := NewRNG(7)
	x := r.SplitN(3).Uint64()
	r2 := NewRNG(7)
	_ = r2.SplitN(1).Uint64()
	if y := r2.SplitN(3).Uint64(); x != y {
		t.Fatal("SplitN not stable across call order")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(9)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for v, c := range counts {
		if c < draws/n*8/10 || c > draws/n*12/10 {
			t.Fatalf("value %d drawn %d times (expected ~%d)", v, c, draws/n)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(257)
	seen := make([]bool, 257)
	for _, v := range p {
		if v < 0 || v >= 257 || seen[v] {
			t.Fatalf("not a permutation at %d", v)
		}
		seen[v] = true
	}
}

func TestNormWorkersBounds(t *testing.T) {
	if got := normWorkers(0, 10); got != DefaultWorkers() && got != 10 {
		// p=0 → default, clamped to n=10.
		t.Fatalf("unexpected normWorkers(0,10)=%d", got)
	}
	if got := normWorkers(99, 3); got != 3 {
		t.Fatalf("normWorkers(99,3)=%d, want 3", got)
	}
	if got := normWorkers(4, 0); got != 1 {
		t.Fatalf("normWorkers(4,0)=%d, want 1", got)
	}
}
