package sched

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// DefaultPlanHorizon is the number of tasks the SLJF planners pre-assign
// before falling back to list scheduling, matching the experiments' 1000
// tasks ("the greater this number, the better the final assignment").
const DefaultPlanHorizon = 1000

// Planned is the "last job first" family, SLJF and SLJFWC: Reset
// pre-computes the assignment of the first Horizon tasks with the
// variant's backward planner, Decide sends the tasks in plan order, and
// tasks beyond the plan are list-scheduled, per the paper's on-line
// adaptation.
type Planned struct {
	Horizon    int
	name       string
	planner    func(n int, pl core.Platform) []int
	plan       []int
	dispatched int
	ls         LS
}

func newPlanned(name string, horizon int, planner func(int, core.Platform) []int) *Planned {
	if horizon <= 0 {
		horizon = DefaultPlanHorizon
	}
	return &Planned{Horizon: horizon, name: name, planner: planner}
}

// NewSLJF returns SLJF ("Scheduling the Last Job First") with the given
// plan horizon (≤ 0 selects the default). It plans by the backward
// placement of planSlots under the communication-homogeneous assumption
// its designers target: all links are modeled by the mean link cost, so
// communication heterogeneity is deliberately ignored (which is why it
// degrades on computation-homogeneous platforms, Figure 1c).
func NewSLJF(horizon int) *Planned {
	return newPlanned("SLJF", horizon, func(n int, pl core.Platform) []int {
		mean := 0.0
		for _, c := range pl.C {
			mean += c
		}
		mean /= float64(pl.M())
		return planSlots(n, mean, pl.P)
	})
}

// NewSLJFWC returns SLJFWC ("Scheduling the Last Job First With
// Communication") with the given plan horizon (≤ 0 selects the default):
// the variant designed for processor-homogeneous platforms, whose planner
// (planOnePort) schedules the master's one-port backwards with the true
// per-link costs.
func NewSLJFWC(horizon int) *Planned {
	return newPlanned("SLJFWC", horizon, func(n int, pl core.Platform) []int {
		return planOnePort(n, pl.C, pl.P)
	})
}

// Name implements sim.Scheduler.
func (s *Planned) Name() string { return s.name }

// Reset implements sim.Scheduler.
func (s *Planned) Reset(pl core.Platform) {
	s.plan = s.planner(s.Horizon, pl)
	s.dispatched = 0
}

// Decide implements sim.Scheduler.
func (s *Planned) Decide(v sim.View) sim.Action {
	task, ok := v.FirstPending()
	if !ok {
		return sim.Idle()
	}
	if s.dispatched < len(s.plan) {
		j := s.plan[s.dispatched]
		s.dispatched++
		return sim.Send(task, j)
	}
	return s.ls.Decide(v)
}
