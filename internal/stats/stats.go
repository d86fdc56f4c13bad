// Package stats provides the small set of descriptive statistics the
// experiment harness aggregates over repeated random platforms and the
// live service reports over observed latencies.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	Median        float64
	GeometricMean float64
	P50, P95, P99 float64
}

// Summarize computes a Summary. It panics on an empty sample. The input
// is not modified; callers that own their sample and can tolerate it
// being reordered should use SummarizeInPlace, which skips the copy the
// percentile computation otherwise needs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	sorted := append([]float64(nil), xs...)
	return SummarizeInPlace(sorted)
}

// SummarizeInPlace is Summarize for a caller-owned sample: the slice is
// sorted in place instead of copied. Reporting surfaces that already
// hold a private snapshot of their sample (schedd's /v1/stats path) use it
// to avoid one full copy per request.
func SummarizeInPlace(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	logSum := 0.0
	geometricValid := true
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		if x > 0 {
			logSum += math.Log(x)
		} else {
			geometricValid = false
		}
	}
	s.Mean = sum / float64(len(xs))
	if geometricValid {
		s.GeometricMean = math.Exp(logSum / float64(len(xs)))
	}
	varSum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varSum += float64(d * d)
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(varSum / float64(len(xs)-1))
	}
	sort.Float64s(xs)
	sorted := xs
	// The interpolated 0.5-quantile is exactly the classic odd/even
	// median, so Median and P50 share one definition.
	s.Median = percentileSorted(sorted, 0.50)
	s.P50 = s.Median
	s.P95 = percentileSorted(sorted, 0.95)
	s.P99 = percentileSorted(sorted, 0.99)
	return s
}

// Percentile returns the p-th quantile of the sample, p in [0, 1], with
// linear interpolation between order statistics (the common "linear"
// definition: rank p·(n−1) into the sorted sample). It panics on an
// empty sample or a p outside [0, 1]. Percentile(xs, 0.5) equals the
// interpolated median; p 0 and 1 are the minimum and maximum.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: percentile %v outside [0, 1]", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted is Percentile on an already-sorted sample.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := float64(p * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// String renders "mean ± std [min, max]".
func (s Summary) String() string {
	return fmt.Sprintf("%.4f ± %.4f [%.4f, %.4f]", s.Mean, s.Std, s.Min, s.Max)
}

// Mean is a convenience for the common single-statistic case.
func Mean(xs []float64) float64 { return Summarize(xs).Mean }
