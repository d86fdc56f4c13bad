package main

import (
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/live"
	"repro/internal/runner"
)

// Every input is drawn from its own keyed stream of the run's seed
// (runner.Seed's derivation), so adding a draw to one generator never
// shifts another's, and the service only ever sees generated inputs.
func stream(seed int64, key string) *rand.Rand { return runner.RNG(seed, "bench/"+key) }

// perturbedSpecs draws n per-job cost perturbations, each scale uniform in
// [0.9, 1.1] — the paper's Figure-2 perturbation. Scales are rounded to
// four decimals so the wire form and the in-process form are the same
// numbers.
func perturbedSpecs(seed int64, key string, n int) []live.JobSpec {
	rng := stream(seed, key)
	draw := func() float64 { return math.Round((0.9+0.2*rng.Float64())*1e4) / 1e4 }
	specs := make([]live.JobSpec, n)
	for i := range specs {
		specs[i] = live.JobSpec{CommScale: draw(), CompScale: draw()}
	}
	return specs
}

// bulkLine is one NDJSON stream line submitting count nominal jobs.
func bulkLine(count int) []byte {
	return append(strconv.AppendInt([]byte(`{"count":`), int64(count), 10), "}\n"...)
}

// perjobLine is one NDJSON stream line submitting a single perturbed job.
func perjobLine(s live.JobSpec) []byte {
	b := []byte(`{"count":1,"comm_scale":`)
	b = strconv.AppendFloat(b, s.CommScale, 'f', 4, 64)
	b = append(b, `,"comp_scale":`...)
	b = strconv.AppendFloat(b, s.CompScale, 'f', 4, 64)
	return append(b, "}\n"...)
}

// perjobLines encodes one line per spec.
func perjobLines(specs []live.JobSpec) [][]byte {
	lines := make([][]byte, len(specs))
	for i, s := range specs {
		lines[i] = perjobLine(s)
	}
	return lines
}

// repeatLine returns n references to the same encoded line.
func repeatLine(line []byte, n int) [][]byte {
	lines := make([][]byte, n)
	for i := range lines {
		lines[i] = line
	}
	return lines
}

// poissonArrivals draws the due times (offsets from the window start) of a
// Poisson process of the given rate over dur.
func poissonArrivals(seed int64, key string, perSecond float64, dur time.Duration) []time.Duration {
	rng := stream(seed, key)
	var due []time.Duration
	for t := rng.ExpFloat64() / perSecond; t < dur.Seconds(); t += rng.ExpFloat64() / perSecond {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	return due
}

// lookupIDs draws n job IDs uniformly from [0, population).
func lookupIDs(seed int64, key string, n, population int) []int {
	rng := stream(seed, key)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = rng.Intn(population)
	}
	return ids
}
