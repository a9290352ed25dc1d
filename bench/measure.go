package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile returns the Harrell–Davis estimate of the q-th quantile of xs
// (0 for none): the average of all order statistics weighted by a
// Beta((n+1)q, (n+1)(1-q)) distribution. A plain percentile is one order
// statistic, so over a few heterogeneous graphs it jumps from one graph's
// time to the next when two of them swap places; this estimate moves
// smoothly. On thousands of samples the two agree. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	est, prev := 0.0, 0.0
	for i := 1; i <= n; i++ {
		cur := regIncBeta(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Lentz's method).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFraction(a, b, x) / a
	}
	return 1 - front*betaFraction(b, a, 1-x)/b
}

func betaFraction(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m < 100000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return h
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// spreads here match the ones the benchmark's acceptance rule uses. xs
// needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// resetPeakRSS returns the memory the Go heap no longer uses to the kernel
// and resets the kernel's peak resident set (VmHWM) to the current resident
// set, so that a later peakRSSMB reads the peak since this call. It reports
// false when the kernel refuses the reset; the peak is then the process's.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB returns the kernel's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostClock measures how fast the host's memory system is running. The
// machine the benchmark was set on shares its caches and memory with other
// tenants, and their load changes how long the same detection takes by up
// to a third within a minute, for every graph and worker count alike. A
// chase of dependent loads through a fixed random cycle tracks that drift
// (on that machine it halved the spread of repeated suite passes), and it
// runs only between the timed calls, so it takes nothing from them.
//
// On the workloads whose times follow the chase (workload.scaled), every
// time the benchmark reports is scaled by the run's factor, refLoadNS over
// the median nanoseconds per load of the run's samples: it is the time the
// run would have taken on a host whose chase takes refLoadNS per load. The
// benchmark's own code is the only thing the chase runs, so no change to
// the library moves it.
type hostClock struct {
	mem     []byte
	ring    []uint32 // mem as one random cycle through every index
	workers int
	steps   int       // loads per worker per sample
	samples []float64 // ns per load
}

const refLoadNS = 100

// newHostClock builds a chase over entries uint32s for the given number of
// concurrent workers. The cycle is the same on every run. Its memory is
// mapped outside the Go heap: as live heap it would raise the garbage
// collector's target, and the library's garbage would then grow further
// before each collection than it does in a program without the chase.
func newHostClock(entries, workers int) (*hostClock, error) {
	mem, err := syscall.Mmap(-1, 0, 4*entries, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map host clock: %w", err)
	}
	ring := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), entries)
	for i := range ring {
		ring[i] = uint32(i)
	}
	rng := newRand(0, 0)
	for i := entries - 1; i > 0; i-- { // Sattolo: a single cycle
		j := rng.IntN(i)
		ring[i], ring[j] = ring[j], ring[i]
	}
	return &hostClock{mem: mem, ring: ring, workers: workers, steps: min(200_000, 4*entries)}, nil
}

func (h *hostClock) close() error { return syscall.Munmap(h.mem) }

// sample times one chase from every worker at once.
func (h *hostClock) sample() {
	var wg sync.WaitGroup
	sinks := make([]uint32, h.workers)
	t := time.Now()
	for w := range sinks {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := uint32(w * len(h.ring) / h.workers)
			for k := 0; k < h.steps; k++ {
				x = h.ring[x]
			}
			sinks[w] = x
		}(w)
	}
	wg.Wait()
	h.samples = append(h.samples, float64(time.Since(t).Nanoseconds())/float64(h.steps))
}

// loadNS is the run's median nanoseconds per load; factor scales a time
// measured in this run to the reference host.
func (h *hostClock) loadNS() float64 { return median(h.samples) }
func (h *hostClock) factor() float64 { return refLoadNS / h.loadNS() }

// residentMB is the chase's own memory, which stays resident all run.
func (h *hostClock) residentMB() float64 { return float64(4*len(h.ring)) / (1 << 20) }

// scaleTime scales a metric with a time unit (or a rate, per second) by the
// host factor f; any other unit is returned as it is.
func scaleTime(v float64, unit string, f float64) float64 {
	switch unit {
	case "s", "ms", "us", "ns":
		return v * f
	case "1/s":
		return v / f
	}
	return v
}

// call is one timed detection or request of the timed window.
type call struct {
	graph int
	lat   time.Duration
	q     float64
	err   error
}

// round is one pass over a workload's request sequence: for an offline
// workload one detection of every graph, for serve-hot one replay of its
// 4,000 requests, for serve-cold ten cycles over its graphs.
type round struct {
	calls []call
	wall  time.Duration
}

// startWindow is called where the span peak_rss_mb covers begins: it
// collects the garbage made so far and resets the peak resident set, so
// that peak_rss_mb counts what is live from here on and not what set-up
// built and dropped.
func (r *run) startWindow() {
	runtime.GC()
	if !resetPeakRSS() {
		r.logf("peak resident set could not be reset; peak_rss_mb is the whole process's")
	}
}

// windowMetrics counts the timed window's calls and sets the end-to-end
// metrics every workload shares. Time metrics are medians, per graph or
// per round, so that a burst of interference from outside the process
// moves them only if it covers most of the run.
//   - suite_s: sum over graphs of the graph's median latency
//   - graph_geomean_ms: geometric mean of the same medians
//   - throughput_rps: median over rounds of the round's completed calls
//     per second
//   - latency_p50_ms: median over every completed call
//   - latency_p99_ms: median over rounds of the round's 99th percentile
//     (in a round of fewer than 100 calls, near its slowest call)
//   - modularity_mean: mean Q over every completed call
//   - peak_rss_mb: peak resident set since startWindow, less the host
//     clock's own memory
//
// The two latency percentiles are Harrell–Davis estimates (see quantile).
// Times are as measured; execute scales them by the host factor.
func (r *run) windowMetrics(rounds []round, label func(graph int) string) {
	perGraph := map[int][]float64{}
	var all, qs, rps, p99 []float64
	for _, rd := range rounds {
		var lats []float64
		for _, c := range rd.calls {
			if c.err != nil {
				r.count(1, 1)
				r.chk.check("every call succeeds", false, "%s: %v", label(c.graph), c.err)
				continue
			}
			r.count(1, 0)
			lats = append(lats, c.lat.Seconds())
			perGraph[c.graph] = append(perGraph[c.graph], c.lat.Seconds())
			qs = append(qs, c.q)
		}
		all = append(all, lats...)
		if len(lats) > 0 {
			rps = append(rps, float64(len(lats))/rd.wall.Seconds())
			p99 = append(p99, quantile(lats, 0.99))
		}
	}
	var medians []float64
	for _, lat := range perGraph {
		medians = append(medians, median(lat)*1e3)
	}
	r.setE2E("suite_s", sum(medians)/1e3)
	r.setE2E("graph_geomean_ms", geomean(medians))
	r.setE2E("throughput_rps", median(rps))
	r.setE2E("latency_p50_ms", quantile(all, 0.5)*1e3)
	r.setE2E("latency_p99_ms", median(p99)*1e3)
	r.setE2E("modularity_mean", mean(qs))
	r.setE2E("peak_rss_mb", peakRSSMB()-r.host.residentMB())
	r.logf("timed window: %d rounds, %d calls over %d graphs", len(rounds), len(all), len(medians))
	walls := make([]string, len(rounds))
	for i, rd := range rounds {
		walls[i] = fmt.Sprintf("%.3f", rd.wall.Seconds())
	}
	r.logf("round wall times (s): %s", strings.Join(walls, " "))
}
