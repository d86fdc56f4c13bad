package sched

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// SpeedOblivious is a speed-oblivious list scheduler, after the
// Lindermayr–Megow–Rapp line of work: it never trusts the platform's
// advertised costs. Each slave's communication and computation times are
// estimated online from the master's observation feed (the actual
// durations of completed sends and computations, recency-weighted), so
// the scheduler keeps tracking the truth when actual speeds drift away
// from the advertised ones — the regime where every nominal-cost
// heuristic plans with stale numbers.
//
// Until a slave has produced an observation it is scored with a neutral
// prior, identical across slaves, which makes the first rounds an
// exploration pass over the whole platform. The dispatch rule is LS-like:
// ship the oldest pending task to the live slave minimizing estimated
// finish ĉ_j + (outstanding_j + 1)·p̂_j.
type SpeedOblivious struct {
	// PriorComm and PriorComp score unobserved slaves; the zero value
	// selects 1 for both.
	PriorComm, PriorComp float64
}

// NewSpeedOblivious returns the speed-oblivious list scheduler.
func NewSpeedOblivious() *SpeedOblivious { return &SpeedOblivious{} }

// Name implements sim.Scheduler.
func (s *SpeedOblivious) Name() string { return "SO-LS" }

// Reset implements sim.Scheduler. The advertised costs are deliberately
// ignored.
func (s *SpeedOblivious) Reset(core.Platform) {}

// Decide implements sim.Scheduler.
func (s *SpeedOblivious) Decide(v sim.View) sim.Action {
	task, ok := v.FirstPending()
	if !ok {
		return sim.Idle()
	}
	priorC, priorP := s.PriorComm, s.PriorComp
	if priorC <= 0 {
		priorC = 1
	}
	if priorP <= 0 {
		priorP = 1
	}
	best, bestScore := -1, 0.0
	for j := 0; j < v.M(); j++ {
		if !v.Alive(j) {
			continue
		}
		c, p := priorC, priorP
		if obs, ok := v.ObservedComm(j); ok {
			c = obs
		}
		if obs, ok := v.ObservedComp(j); ok {
			p = obs
		}
		score := c + float64(v.Outstanding(j)+1)*p
		if best < 0 || score < bestScore {
			best, bestScore = j, score
		}
	}
	if best < 0 {
		return sim.Idle() // every slave is down
	}
	return sim.Send(task, best)
}
