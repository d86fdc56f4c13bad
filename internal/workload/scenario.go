package workload

// Random scenario generators: the dynamic-platform counterpart of the
// arrival patterns in workload.go. Each generator draws a deterministic
// event timeline for internal/scenario from a caller-provided rng — under
// the runner's hash(rootSeed, shardKey) seeding the same (seed, key)
// always yields the identical scenario, whatever the worker count.
//
// Generators produce standalone scenarios: the slave indices they emit
// assume no other source of joins, so compose timelines only by
// generating them from one call.

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/scenario"
)

// FailureScenario draws Poisson slave churn: while up, each of the m
// slaves fails with exponential inter-failure times calibrated so it
// fails failsPerSlave times in expectation over the horizon; each failure
// is followed by an exponential downtime of mean meanDowntime. Failures
// are only generated inside the horizon, and every failure's recovery is
// always emitted (possibly past the horizon), so a scenario never
// strands a slave forever.
func FailureScenario(rng *rand.Rand, m int, horizon, failsPerSlave, meanDowntime float64) scenario.Scenario {
	if m <= 0 || horizon <= 0 || failsPerSlave <= 0 {
		panic(fmt.Sprintf("workload: failure scenario needs positive m=%d, horizon=%v, failsPerSlave=%v",
			m, horizon, failsPerSlave))
	}
	if meanDowntime <= 0 {
		meanDowntime = 0.1 * horizon
	}
	meanUp := horizon / failsPerSlave
	var evs []scenario.Event
	for j := 0; j < m; j++ {
		t := rng.ExpFloat64() * meanUp
		for t < horizon {
			down := float64(rng.ExpFloat64() * meanDowntime)
			evs = append(evs, scenario.FailAt(t, j), scenario.RecoverAt(t+down, j))
			t += down + float64(rng.ExpFloat64()*meanUp)
		}
	}
	return scenario.Scenario{
		Name:   fmt.Sprintf("failures(per-slave=%.2g,downtime=%.2g)", failsPerSlave, meanDowntime),
		Events: evs,
	}
}

// DriftScenario draws a bounded multiplicative random walk on every
// slave's ACTUAL costs: at each of steps evenly spaced times inside the
// horizon, each cost is multiplied by a factor uniform in
// [1/(1+spread), 1+spread] and clamped to within maxFactor of its
// original value, so actual speeds wander but never run away. The
// nominal costs schedulers plan with are untouched (see
// sim.Engine.DriftCosts).
func DriftScenario(rng *rand.Rand, pl core.Platform, horizon float64, steps int, spread float64) scenario.Scenario {
	if horizon <= 0 || steps <= 0 || spread <= 0 {
		panic(fmt.Sprintf("workload: drift scenario needs positive horizon=%v, steps=%d, spread=%v",
			horizon, steps, spread))
	}
	maxFactor := (1 + spread) * (1 + spread)
	cur := pl.Clone()
	var evs []scenario.Event
	for k := 1; k <= steps; k++ {
		t := horizon * float64(k) / float64(steps+1)
		for j := 0; j < pl.M(); j++ {
			c := clamp(cur.C[j]*driftFactor(rng, spread), pl.C[j]/maxFactor, pl.C[j]*maxFactor)
			p := clamp(cur.P[j]*driftFactor(rng, spread), pl.P[j]/maxFactor, pl.P[j]*maxFactor)
			cur.C[j], cur.P[j] = c, p
			evs = append(evs, scenario.DriftAt(t, j, c, p))
		}
	}
	return scenario.Scenario{
		Name:   fmt.Sprintf("drift(steps=%d,spread=%.2g)", steps, spread),
		Events: evs,
	}
}

// driftFactor draws a multiplicative step: up to (1+spread) in either
// direction, symmetric in log space so walks don't trend.
func driftFactor(rng *rand.Rand, spread float64) float64 {
	limit := math.Log1p(spread)
	// rand's Float64 is itself a product, which gc would fuse into the
	// doubling (an add) without the conversion.
	return math.Exp((float64(rng.Float64())*2 - 1) * limit)
}

func clamp(x, lo, hi float64) float64 {
	return math.Min(math.Max(x, lo), hi)
}

// FlashCrowdScenario draws a flash crowd: joins new slaves, with costs
// from the generation ranges (zero-valued gen fields select the paper's
// defaults), all appearing at joinAt and departing — queues destroyed and
// re-dispatched — at leaveAt. m0 is the initial platform size, which
// fixes the joined slaves' indices.
func FlashCrowdScenario(rng *rand.Rand, m0, joins int, joinAt, leaveAt float64, gen core.GenConfig) scenario.Scenario {
	if m0 <= 0 || joins <= 0 || joinAt < 0 || leaveAt <= joinAt {
		panic(fmt.Sprintf("workload: flash crowd needs m0=%d, joins=%d > 0 and 0 ≤ joinAt=%v < leaveAt=%v",
			m0, joins, joinAt, leaveAt))
	}
	def := core.DefaultGenConfig()
	if gen.CMax <= gen.CMin {
		gen.CMin, gen.CMax = def.CMin, def.CMax
	}
	if gen.PMax <= gen.PMin {
		gen.PMin, gen.PMax = def.PMin, def.PMax
	}
	var evs []scenario.Event
	for i := 0; i < joins; i++ {
		c := gen.CMin + float64(rng.Float64()*(gen.CMax-gen.CMin))
		p := gen.PMin + float64(rng.Float64()*(gen.PMax-gen.PMin))
		evs = append(evs, scenario.JoinAt(joinAt, c, p))
	}
	for i := 0; i < joins; i++ {
		evs = append(evs, scenario.LeaveAt(leaveAt, m0+i))
	}
	return scenario.Scenario{
		Name:   fmt.Sprintf("flash-crowd(joins=%d)", joins),
		Events: evs,
	}
}
