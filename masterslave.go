// Package masterslave is the public facade of this reproduction of
// Pineau, Robert and Vivien, "The impact of heterogeneity on master-slave
// on-line scheduling" (IPPS 2006 / INRIA RR-5732).
//
// It wires together the internal subsystems — the one-port discrete-event
// simulator, the seven on-line heuristics of the paper's Section 4, the
// exact offline optimum, the nine Section-3 adversaries with their exact
// Q[√d] proof verification, and the experiment harness regenerating
// Table 1 and Figures 1 and 2 — behind a small, stable API:
//
//	pl := masterslave.RandomPlatform(rand.New(rand.NewSource(1)),
//		masterslave.Heterogeneous, 5)
//	s, err := masterslave.Run("LS", pl, masterslave.Bag(1000))
//	fmt.Println(s.Makespan(), s.SumFlow())
//
// See DESIGN.md for the architecture and README.md for the quickstart
// and the map from figures and tables to paper sections.
package masterslave

import (
	"fmt"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/live"
	"repro/internal/lowerbound"
	"repro/internal/optimal"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Re-exported model types. See internal/core for full documentation.
type (
	// Platform is a one-port master-slave platform: C[j] and P[j] are the
	// per-task communication and computation times of slave j.
	Platform = core.Platform
	// Task is one unit of work with a release time.
	Task = core.Task
	// Schedule is a complete execution trace with objective accessors.
	Schedule = core.Schedule
	// Objective selects makespan, max-flow or sum-flow.
	Objective = core.Objective
	// Class is a platform heterogeneity class.
	Class = core.Class
	// Scheduler is an on-line scheduling algorithm.
	Scheduler = sim.Scheduler
)

// Platform classes (paper Section 3.1).
const (
	Homogeneous     = core.Homogeneous
	CommHomogeneous = core.CommHomogeneous
	CompHomogeneous = core.CompHomogeneous
	Heterogeneous   = core.Heterogeneous
)

// Objectives (paper Section 2).
const (
	Makespan = core.Makespan
	MaxFlow  = core.MaxFlow
	SumFlow  = core.SumFlow
)

// NewPlatform builds a platform from per-slave communication and
// computation times.
func NewPlatform(c, p []float64) Platform { return core.NewPlatform(c, p) }

// RandomPlatform draws a platform of the class with m slaves, using the
// paper's parameter ranges (c ∈ [0.01 s, 1 s], p ∈ [0.1 s, 8 s]).
func RandomPlatform(rng *rand.Rand, class Class, m int) Platform {
	return core.Random(rng, class, core.GenConfig{M: m})
}

// Bag returns n identical tasks all released at time 0.
func Bag(n int) []Task { return core.Bag(n) }

// ReleasesAt returns identical tasks with the given release times.
func ReleasesAt(times ...float64) []Task { return core.ReleasesAt(times...) }

// Algorithms lists the seven heuristics in the paper's order:
// SRPT, LS, RR, RRC, RRP, SLJF, SLJFWC.
func Algorithms() []string { return sched.Names() }

// NewScheduler instantiates a heuristic by paper name. It panics on
// unknown names; use Algorithms for the valid set.
func NewScheduler(name string) Scheduler { return sched.New(name) }

// Run simulates the named heuristic on the platform and workload under
// the one-port model and returns the validated schedule.
func Run(algorithm string, pl Platform, tasks []Task) (Schedule, error) {
	return sim.Simulate(pl, sched.New(algorithm), tasks)
}

// RunScheduler is Run for a caller-constructed Scheduler (custom
// parameterizations, extensions).
func RunScheduler(s Scheduler, pl Platform, tasks []Task) (Schedule, error) {
	return sim.Simulate(pl, s, tasks)
}

// RunLive executes the workload on the concurrent live runtime
// (goroutine master and slaves, internal/live) under its deterministic
// virtual clock, with tasks streamed in at their release times, and
// returns the validated schedule. The live conformance suite guarantees
// the result is bit-identical to Run; this facade exists to exercise the
// serving runtime itself.
func RunLive(algorithm string, pl Platform, tasks []Task) (Schedule, error) {
	res, err := live.Run(live.Config{
		Platform:  pl,
		Scheduler: sched.New(algorithm),
		World:     live.NewVirtual(),
		Sources:   []func(*live.Source){live.Replay(tasks)},
	})
	if err != nil {
		return Schedule{}, err
	}
	if err := core.ValidateSchedule(res.Schedule); err != nil {
		return Schedule{}, fmt.Errorf("masterslave: live run produced an infeasible schedule: %w", err)
	}
	return res.Schedule, nil
}

// Optimum returns the exact offline optimum of the objective on the
// instance (identical tasks; see internal/optimal for the exchange
// argument and size limits).
func Optimum(pl Platform, tasks []Task, obj Objective) float64 {
	return optimal.Solve(core.NewInstance(pl, tasks), obj).Value
}

// CompetitiveRatio plays the paper's Theorem-k adversary (k in 1..9)
// against the named algorithm and returns the achieved ratio and the
// theorem's lower bound. The theorems guarantee ratio ≥ bound − slack for
// every deterministic algorithm.
func CompetitiveRatio(theorem int, algorithm string) (ratio, bound float64, err error) {
	if theorem < 1 || theorem > 9 {
		return 0, 0, fmt.Errorf("masterslave: theorem %d out of range 1..9", theorem)
	}
	adv := adversary.All()[theorem-1]
	out, err := adversary.Play(adv, sched.New(algorithm))
	if err != nil {
		return 0, 0, err
	}
	return out.Ratio, out.Bound, nil
}

// VerifyProofs re-derives every numeric step of the nine lower-bound
// proofs in exact arithmetic and returns the first discrepancy, or nil.
func VerifyProofs() error {
	for _, v := range lowerbound.All() {
		if err := v.Verify(); err != nil {
			return err
		}
	}
	return nil
}

// OfflinePlan returns a full assignment sequence for n identical tasks
// released at time 0 — the off-line companion problem. The plan is
// makespan-optimal on communication-homogeneous and computation-
// homogeneous platforms and a strong heuristic otherwise.
func OfflinePlan(pl Platform, n int) []int { return sched.OfflinePlan(pl, n) }

// OfflineMakespan evaluates OfflinePlan's makespan.
func OfflineMakespan(pl Platform, n int) float64 { return sched.OfflineMakespan(pl, n) }

// OfflineLowerBound returns a makespan lower bound valid for every
// schedule of n identical tasks released at time 0.
func OfflineLowerBound(pl Platform, n int) float64 { return sched.OfflineLowerBound(pl, n) }

// Dynamic-platform scenarios (internal/scenario): a Scenario scripts
// slaves failing, recovering, joining, departing and drifting in speed
// mid-run; work destroyed by a failure is re-released to the master and
// objectives are measured against original release dates.
type (
	// Scenario is a deterministic timeline of platform events.
	Scenario = scenario.Scenario
	// ScenarioEvent is one platform mutation at a fixed time.
	ScenarioEvent = scenario.Event
	// ScenarioOutcome is the result of a scenario run: the final schedule
	// over original tasks plus the full re-dispatch trace.
	ScenarioOutcome = scenario.Outcome
)

// StaticScenario is the empty timeline: RunScenario degenerates to Run.
var StaticScenario = scenario.Static

// FailAt scripts a slave failure: its queued and in-flight work is
// destroyed and re-released to the master.
func FailAt(t float64, slave int) ScenarioEvent { return scenario.FailAt(t, slave) }

// RecoverAt scripts a failed slave coming back, empty-queued.
func RecoverAt(t float64, slave int) ScenarioEvent { return scenario.RecoverAt(t, slave) }

// JoinAt scripts a new slave appearing with the given costs.
func JoinAt(t, c, p float64) ScenarioEvent { return scenario.JoinAt(t, c, p) }

// LeaveAt scripts a slave departing for good (its work is re-released).
func LeaveAt(t float64, slave int) ScenarioEvent { return scenario.LeaveAt(t, slave) }

// DriftAt scripts a change of a slave's actual costs; schedulers keep
// seeing the originally advertised ones (speed-oblivious regime).
func DriftAt(t float64, slave int, c, p float64) ScenarioEvent {
	return scenario.DriftAt(t, slave, c, p)
}

// RunScenario simulates the named heuristic through a dynamic-platform
// scenario. The heuristic is wrapped fail-safe: dispatches to dead slaves
// re-route to the best live slave and membership changes trigger a
// re-plan, so all seven paper algorithms survive churn. Use
// RunScenarioScheduler with an unwrapped scheduler to observe the typed
// sim.DeadSlaveError instead.
func RunScenario(algorithm string, pl Platform, tasks []Task, sc Scenario) (ScenarioOutcome, error) {
	return scenario.Run(pl, sched.FailSafe(sched.New(algorithm)), tasks, sc)
}

// RunScenarioScheduler is RunScenario for a caller-constructed Scheduler,
// applied as given (no fail-safe wrapping).
func RunScenarioScheduler(s Scheduler, pl Platform, tasks []Task, sc Scenario) (ScenarioOutcome, error) {
	return scenario.Run(pl, s, tasks, sc)
}

// NewFailSafe wraps a scheduler with the dynamic-platform policy used by
// RunScenario: re-route around dead slaves, re-plan on joins.
func NewFailSafe(s Scheduler) Scheduler { return sched.FailSafe(s) }

// NewSpeedOblivious returns the speed-oblivious list scheduler (beyond
// the paper): it ignores advertised costs and learns each slave's real
// speed online from observed completions, tracking drift.
func NewSpeedOblivious() Scheduler { return sched.NewSpeedOblivious() }

// ExperimentConfig scales the figure experiments; the zero value is the
// paper's setup (10 platforms × 5 slaves × 1000 tasks).
type ExperimentConfig = experiment.Config

// Figure1 regenerates one panel of the paper's Figure 1.
func Figure1(class Class, cfg ExperimentConfig) experiment.Figure1Result {
	return experiment.Figure1(class, cfg)
}

// Figure2 regenerates the paper's Figure 2 robustness experiment.
func Figure2(cfg ExperimentConfig) experiment.Figure2Result {
	return experiment.Figure2(cfg)
}

// Table1 regenerates the paper's Table 1, confirming every bound against
// the scheduler registry.
func Table1() []experiment.Table1Row { return experiment.Table1() }

// ScenarioStudy sweeps the heuristics over dynamic-platform scenarios
// (failures, drift, flash crowds) at two intensities on two platform
// classes; see experiment.ScenarioStudy.
func ScenarioStudy(cfg ExperimentConfig) experiment.ScenarioStudyResult {
	return experiment.ScenarioStudy(cfg)
}
