// Package workload generates the task streams driving every experiment:
// the paper's bag-of-tasks workload, trickle arrival patterns used in the
// ablation studies, and the matrix-size perturbation of the Figure-2
// robustness experiment.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
)

// Pattern names an arrival process.
type Pattern int

const (
	// BagAtZero releases every task at time 0 — the paper's main workload
	// ("we send one thousand tasks on it").
	BagAtZero Pattern = iota
	// Poisson releases tasks with exponential inter-arrival times.
	Poisson
	// UniformSpread spaces releases uniformly at random over a horizon.
	UniformSpread
	// Bursty releases tasks in bursts separated by quiet gaps.
	Bursty
	// Periodic releases one task every fixed interval.
	Periodic
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case BagAtZero:
		return "bag-at-zero"
	case Poisson:
		return "poisson"
	case UniformSpread:
		return "uniform"
	case Bursty:
		return "bursty"
	case Periodic:
		return "periodic"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Config parameterizes a generated workload.
type Config struct {
	N       int     // number of tasks
	Pattern Pattern // arrival process
	// Rate is the mean arrival rate (tasks per second) for Poisson and
	// Periodic, and the within-burst rate for Bursty. Ignored by BagAtZero.
	Rate float64
	// Horizon is the release window length for UniformSpread.
	Horizon float64
	// BurstSize and GapMean shape the Bursty pattern: bursts of BurstSize
	// back-to-back releases separated by exponential gaps of mean GapMean.
	BurstSize int
	GapMean   float64
	// Perturb enables the Figure-2 matrix-size perturbation: each task's
	// side length is scaled by a factor drawn uniformly from
	// [1−Perturb, 1+Perturb] (the paper perturbs "by a factor of up to
	// 10%", i.e. Perturb = 0.1). Communication cost scales with the square
	// of the factor (matrix volume), computation with the cube (LU flops),
	// unless LinearPerturb is set.
	Perturb float64
	// LinearPerturb applies the size factor directly to both costs
	// (exponents 1,1) instead of the matrix model (2,3).
	LinearPerturb bool
}

// Generate draws a workload. All randomness comes from rng, so a seed
// fully determines the stream. N = 0 yields the empty workload (a sweep
// cell with nothing to release is legitimate); a negative N panics.
func Generate(rng *rand.Rand, cfg Config) []core.Task {
	if cfg.N < 0 {
		panic(fmt.Sprintf("workload: negative task count %d", cfg.N))
	}
	if cfg.N == 0 {
		return nil
	}
	releases := make([]float64, cfg.N)
	switch cfg.Pattern {
	case BagAtZero:
		// all zeros
	case Poisson:
		rate := cfg.Rate
		if rate <= 0 {
			rate = 1
		}
		t := 0.0
		for i := range releases {
			t += rng.ExpFloat64() / rate
			releases[i] = t
		}
	case UniformSpread:
		h := cfg.Horizon
		if h <= 0 {
			h = float64(cfg.N)
		}
		for i := range releases {
			releases[i] = rng.Float64() * h
		}
	case Bursty:
		size := cfg.BurstSize
		if size <= 0 {
			size = 10
		}
		gap := cfg.GapMean
		if gap <= 0 {
			gap = 5
		}
		t := 0.0
		for i := range releases {
			if i > 0 && i%size == 0 {
				t += float64(rng.ExpFloat64() * gap)
			}
			releases[i] = t
		}
	case Periodic:
		rate := cfg.Rate
		if rate <= 0 {
			rate = 1
		}
		for i := range releases {
			releases[i] = float64(i) / rate
		}
	default:
		panic(fmt.Sprintf("workload: unknown pattern %v", cfg.Pattern))
	}

	tasks := make([]core.Task, cfg.N)
	for i := range tasks {
		tasks[i] = core.Task{ID: core.TaskID(i), Release: releases[i], CommScale: 1, CompScale: 1}
		if cfg.Perturb > 0 {
			// Both conversions round a product gc would otherwise fuse:
			// rand's Float64 scaling into the doubling, and the perturbation.
			s := 1 + float64((float64(rng.Float64())*2-1)*cfg.Perturb)
			if cfg.LinearPerturb {
				tasks[i].CommScale, tasks[i].CompScale = s, s
			} else {
				tasks[i].CommScale = s * s
				tasks[i].CompScale = s * s * s
			}
		}
	}
	return tasks
}

// Strip returns a copy of the tasks with all size perturbation removed
// (CommScale = CompScale = 1). Figure 2 compares a perturbed run against
// the identical-size run on the same platform; Strip produces the latter.
func Strip(tasks []core.Task) []core.Task {
	out := append([]core.Task(nil), tasks...)
	for i := range out {
		out[i].CommScale, out[i].CompScale = 1, 1
	}
	return out
}

// MeanLoad estimates the offered load of a task stream on a platform: the
// arrival rate divided by the platform's aggregate service rate (an upper
// bound on sustainable throughput given the one-port constraint).
func MeanLoad(tasks []core.Task, pl core.Platform) float64 {
	if len(tasks) < 2 {
		return math.Inf(1)
	}
	span := tasks[len(tasks)-1].Release - tasks[0].Release
	if span <= 0 {
		return math.Inf(1)
	}
	arrivalRate := float64(len(tasks)-1) / span
	// Service capacity: slaves in parallel, capped by the master's port.
	compRate := 0.0
	minC := math.Inf(1)
	for j := 0; j < pl.M(); j++ {
		compRate += 1 / pl.P[j]
		if pl.C[j] < minC {
			minC = pl.C[j]
		}
	}
	portRate := 1 / minC
	cap := math.Min(compRate, portRate)
	return arrivalRate / cap
}
