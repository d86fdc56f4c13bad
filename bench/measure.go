package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// metric is one named measurement with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending sample: the smallest value with at least p% of the sample at
// or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	return n - min(max(int(math.Ceil(p/100*float64(n))), 1), n)
}

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{99, 95, 90, 75, 50}

// Tail caps. An open loop reads its tail at p99 where the sample allows. A
// closed loop stops offering load while it waits, so the stalls a p99 would
// count are the ones it mostly omits; what is left up there is scheduler
// jitter of the generator itself, which repeats to ±15 % between runs on
// two shared cores. Closed loops read their tail at p95, which repeats.
const (
	openLoopTail   = 99
	closedLoopTail = 95
)

// tailPercentile picks the highest candidate percentile, no higher than
// limit, that still has at least ten samples beyond it, so a tail is never
// read off a handful of outliers. Samples too small for any candidate
// report the median.
func tailPercentile(n int, limit float64) float64 {
	for _, p := range tailCandidates {
		if p <= limit && samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// latencySegments is how many consecutive slices of a run a latency
// sample is cut into. On a shared two-core machine the dominant noise is a
// stall of a few hundred milliseconds that lands in one run and not the
// next; it pollutes one slice's percentiles, and the median over slices
// ignores it.
const latencySegments = 10

// latencySummary returns a sample's median and tail, with the percentile
// the tail was read at. xs is in the order the operations were issued. It
// is cut into latencySegments consecutive equal slices, each slice's
// median and tail (tailPercentile of the slice size, capped at limit) are
// taken, and the medians over the slices are reported. Samples too small
// to leave each slice twenty values are summarised whole.
func latencySummary(xs []float64, limit float64) (p50, tail, tailP float64) {
	segs := latencySegments
	if len(xs) < 20*segs {
		segs = 1
	}
	size := len(xs) / segs
	tailP = tailPercentile(size, limit)
	p50s, tails := make([]float64, segs), make([]float64, segs)
	for i := range p50s {
		seg := append([]float64(nil), xs[i*size:(i+1)*size]...)
		sort.Float64s(seg)
		p50s[i], tails[i] = percentile(seg, 50), percentile(seg, tailP)
	}
	return median(p50s), median(tails), tailP
}

// segmentRate is the steady rate of a stream of completions: at[i] is when
// completion i was seen and n[i] how many units it carried. The stream is
// cut into latencySegments consecutive slices of equal completion count
// and the median of the slices' rates (units per second) is returned, for
// the same reason latencySummary works on slices.
func segmentRate(at []time.Time, n []int) float64 {
	segs := latencySegments
	if len(at) < 2*segs {
		segs = 1 // too few completions to slice: the rate over the whole stream
	}
	size := len(at) / segs
	if size < 2 {
		return 0
	}
	rates := make([]float64, segs)
	for s := range rates {
		lo, hi := s*size, (s+1)*size-1
		units := 0
		for _, c := range n[lo+1 : hi+1] {
			units += c
		}
		rates[s] = float64(units) / at[hi].Sub(at[lo]).Seconds()
	}
	return median(rates)
}

// median returns the middle of a small sample without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// heapLive is the live heap after collection. Two cycles: sync.Pool
// contents survive the first in the victim cache and would otherwise be
// counted as retained.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// mallocs is the process-wide allocation count, for per-job alloc deltas
// around a rung.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ladderSelf turns the per-job cost measured at successively lower entry
// points (rung 0 the outermost) into each rung's self cost: what entering
// one layer higher adds. The last rung has nothing below it, so its self
// cost is its whole cost; the self costs sum to rung 0 by construction.
func ladderSelf(perJob []float64) []float64 {
	self := make([]float64, len(perJob))
	for i, c := range perJob {
		if i+1 < len(perJob) {
			c -= perJob[i+1]
		}
		self[i] = c
	}
	return self
}

// timeIt runs fn once and returns its wall time.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// medianOf runs fn reps times and returns the median wall time; rungs short
// enough to be disturbed by one GC cycle are measured this way.
func medianOf(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		ds[i] = float64(timeIt(fn))
	}
	return time.Duration(median(ds))
}
