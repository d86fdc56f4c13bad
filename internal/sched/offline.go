package sched

import (
	"math"

	"repro/internal/core"
)

// This file exposes the backward planners as an *off-line* scheduling
// API — the subject of the companion report the paper builds on
// ("Off-line and on-line scheduling on heterogeneous master-slave
// platforms"): given the platform and the total number of identical
// tasks, all released at time 0, produce a full assignment sequence.
//
// The plan is makespan-optimal on communication-homogeneous platforms
// (uniform c) and on computation-homogeneous platforms (uniform p) —
// both validated against exhaustive search in the test suite — and a
// documented heuristic on fully heterogeneous platforms.

// OfflinePlan returns the assignment sequence (slave of the k-th send)
// for n identical tasks released at 0 on the platform. Like the other two
// entry points below, it panics with core.Platform.Validate's message on
// a platform no schedule exists for.
func OfflinePlan(pl core.Platform, n int) []int {
	mustValid(pl)
	if n <= 0 {
		return nil
	}
	c := pl.C
	if uniform(c) {
		return planSlots(n, c[0], pl.P)
	}
	return planOnePort(n, c, pl.P)
}

// OfflineMakespan evaluates OfflinePlan's makespan under as-soon-as-
// possible dispatch.
func OfflineMakespan(pl core.Platform, n int) float64 {
	return planMakespan(OfflinePlan(pl, n), pl.C, pl.P)
}

// OfflineLowerBound returns a makespan lower bound valid for every
// schedule of n identical tasks released at 0:
//
//   - the port-and-first-compute path: the k-th send cannot complete
//     before k·min(c), and some task computes after the last send;
//   - the fractional load-balance bound: a deadline T is infeasible if
//     even fractionally the slaves cannot absorb n tasks, i.e.
//     Σ_j max(0, (T − c_j)) / p_j < n.
func OfflineLowerBound(pl core.Platform, n int) float64 {
	mustValid(pl)
	if n <= 0 {
		return 0
	}
	minC, minP := math.Inf(1), math.Inf(1)
	for j := 0; j < pl.M(); j++ {
		minC = math.Min(minC, pl.C[j])
		minP = math.Min(minP, pl.P[j])
	}
	pathLB := float64(float64(n)*minC) + minP

	// Binary search the fractional-capacity bound.
	capacityAt := func(t float64) float64 {
		total := 0.0
		for j := 0; j < pl.M(); j++ {
			if avail := t - pl.C[j]; avail > 0 {
				total += avail / pl.P[j]
			}
		}
		return total
	}
	hi := pathLB
	for capacityAt(hi) < float64(n) {
		hi *= 2
	}
	hi = bisect(hi, 64, 1e-12, func(t float64) bool { return capacityAt(t) >= float64(n) })
	return math.Max(pathLB, hi)
}

// mustValid panics with Validate's message on a platform with no slaves
// or a non-positive or non-finite cost, where the planners would index
// out of range and the lower bound's search would never end.
func mustValid(pl core.Platform) {
	if err := pl.Validate(); err != nil {
		panic("sched: " + err.Error())
	}
}
