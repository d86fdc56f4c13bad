package sched

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// FailSafeScheduler adapts any of the paper's (static-world) heuristics
// to dynamic platforms. The paper's algorithms were designed for a fixed
// slave set, so under churn they misbehave in two ways that this wrapper
// repairs with a uniform policy:
//
//   - Dead targets. If the inner scheduler dispatches to a failed or
//     departed slave (SRPT is especially prone: a dead slave looks
//     permanently free), the send is re-routed to the live slave with the
//     earliest predicted finish; if every slave is down, the wrapper
//     idles until the world changes.
//   - Membership changes. When slaves join, the inner scheduler's Reset
//     is replayed on the platform as currently advertised, so index-based
//     state (round-robin orderings, SLJF plans, SRPT's cost table) covers
//     the newcomers. Re-planning mid-run is a deliberate policy: the
//     static plans were computed for a world that no longer exists.
//
// The wrapper is policy plumbing, not a different algorithm, so Name
// passes through — a sweep over the seven heuristics keeps its labels.
type FailSafeScheduler struct {
	inner sim.Scheduler
	m     int
}

// FailSafe wraps a scheduler for dynamic platforms.
func FailSafe(inner sim.Scheduler) *FailSafeScheduler {
	return &FailSafeScheduler{inner: inner}
}

// Name implements sim.Scheduler (transparently).
func (f *FailSafeScheduler) Name() string { return f.inner.Name() }

// Reset implements sim.Scheduler.
func (f *FailSafeScheduler) Reset(pl core.Platform) {
	f.m = pl.M()
	f.inner.Reset(pl)
}

// Decide implements sim.Scheduler.
func (f *FailSafeScheduler) Decide(v sim.View) sim.Action {
	if v.M() != f.m {
		// A slave joined: replay Reset on the advertised platform so the
		// inner scheduler's static state covers the newcomer.
		c := make([]float64, v.M())
		p := make([]float64, v.M())
		for j := range c {
			c[j], p[j] = v.Comm(j), v.Comp(j)
		}
		f.m = v.M()
		f.inner.Reset(core.NewPlatform(c, p))
	}
	act := f.inner.Decide(v)
	if act.Kind != sim.ActSend || v.Alive(act.Slave) {
		return act
	}
	best, bestFinish := -1, 0.0
	for j := 0; j < v.M(); j++ {
		if !v.Alive(j) {
			continue
		}
		if fin := v.PredictFinish(j); best < 0 || fin < bestFinish {
			best, bestFinish = j, fin
		}
	}
	if best < 0 {
		return sim.Idle() // every slave is down: wait for a recovery or join
	}
	act.Slave = best
	return act
}
