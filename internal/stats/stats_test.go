package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("N=%d mean=%v", s.N, s.Mean)
	}
	// Sample std of this classic dataset is ~2.138.
	if math.Abs(s.Std-2.1380899) > 1e-6 {
		t.Fatalf("std = %v", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min=%v max=%v", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Fatalf("median = %v", s.Median)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.Std != 0 || s.Median != 3 || s.Min != 3 || s.Max != 3 {
		t.Fatalf("%+v", s)
	}
}

func TestMedianOdd(t *testing.T) {
	if got := Summarize([]float64{9, 1, 5}).Median; got != 5 {
		t.Fatalf("median = %v", got)
	}
}

func TestGeometricMean(t *testing.T) {
	s := Summarize([]float64{1, 4, 16})
	if math.Abs(s.GeometricMean-4) > 1e-12 {
		t.Fatalf("geomean = %v", s.GeometricMean)
	}
	// Non-positive values disable the geometric mean.
	if got := Summarize([]float64{1, 0, 4}).GeometricMean; got != 0 {
		t.Fatalf("geomean with zero = %v", got)
	}
}

func TestEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty sample accepted")
		}
	}()
	Summarize(nil)
}

func TestMeanAndString(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
	if s := Summarize([]float64{1, 2}).String(); s == "" {
		t.Fatal("empty String")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40} // ranks 0,1,2,3
	cases := []struct{ p, want float64 }{
		{0, 10},
		{1, 40},
		{0.5, 25},     // rank 1.5 → halfway between 20 and 30
		{0.25, 17.5},  // rank 0.75
		{0.95, 38.5},  // rank 2.85
		{1.0 / 3, 20}, // rank exactly 1
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Input order must not matter, and the input must not be mutated.
	shuffled := []float64{40, 10, 30, 20}
	if got := Percentile(shuffled, 0.5); got != 25 {
		t.Fatalf("Percentile on shuffled input = %v", got)
	}
	if shuffled[0] != 40 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileSingleElement(t *testing.T) {
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := Percentile([]float64{7}, p); got != 7 {
			t.Fatalf("Percentile(single, %v) = %v", p, got)
		}
	}
}

func TestPercentileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty sample accepted")
		}
	}()
	Percentile(nil, 0.5)
}

func TestPercentileRangePanics(t *testing.T) {
	for _, p := range []float64{-0.01, 1.01} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("p=%v accepted", p)
				}
			}()
			Percentile([]float64{1, 2}, p)
		}()
	}
}

func TestSummaryPercentileFields(t *testing.T) {
	xs := make([]float64, 100) // 1..100
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := Summarize(xs)
	if s.P50 != s.Median {
		t.Fatalf("P50 %v != median %v", s.P50, s.Median)
	}
	if math.Abs(s.P95-95.05) > 1e-12 || math.Abs(s.P99-99.01) > 1e-9 {
		t.Fatalf("P95=%v P99=%v", s.P95, s.P99)
	}
	single := Summarize([]float64{3})
	if single.P50 != 3 || single.P95 != 3 || single.P99 != 3 {
		t.Fatalf("single-element percentiles %+v", single)
	}
}

// TestPercentileSortedMatchesPercentile: on a sorted copy of any sample,
// PercentileSorted returns Percentile's value bit for bit, samples of
// length 1 and samples full of ties included.
func TestPercentileSortedMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		xs := make([]float64, 1+rng.Intn(40))
		levels := 1 + rng.Intn(len(xs)) // few levels: many ties
		for i := range xs {
			xs[i] = float64(rng.Intn(levels))
			if trial%2 == 1 {
				xs[i] *= rng.ExpFloat64()
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range []float64{0, 0.5, 0.95, 0.99, 1, rng.Float64()} {
			want, got := Percentile(xs, p), PercentileSorted(sorted, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("sample %v, p %v: PercentileSorted %v, Percentile %v", xs, p, got, want)
			}
		}
	}
}
