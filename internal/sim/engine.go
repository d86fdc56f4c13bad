// Package sim implements a deterministic discrete-event simulator of the
// paper's one-port master-slave machine. A Scheduler is consulted whenever
// the master's outgoing port is free and work is pending; the engine
// enforces the one-port constraint, per-slave FIFO execution, release
// dates, and per-task size perturbation, and produces a complete
// core.Schedule trace.
//
// The engine supports incremental execution (AdvanceTo) and dynamic task
// injection, which is what the Section-3 adversaries need to observe an
// algorithm's decisions before choosing the rest of the instance.
package sim

import (
	"fmt"

	"repro/internal/core"
)

// ActionKind discriminates scheduler decisions.
type ActionKind int

const (
	// ActSend starts shipping a pending task to a slave immediately.
	ActSend ActionKind = iota
	// ActWait asks to be consulted again at a given time (or earlier if
	// anything happens).
	ActWait
	// ActIdle asks to be consulted again at the next state change.
	ActIdle
)

// Action is a scheduler decision.
type Action struct {
	Kind  ActionKind
	Task  core.TaskID
	Slave int
	Until float64
}

// Send builds a dispatch action.
func Send(task core.TaskID, slave int) Action {
	return Action{Kind: ActSend, Task: task, Slave: slave}
}

// Wait builds a wake-me-at action.
func Wait(until float64) Action { return Action{Kind: ActWait, Until: until} }

// Idle builds a consult-me-on-next-event action.
func Idle() Action { return Action{Kind: ActIdle} }

// Scheduler is an on-line scheduling algorithm. Decide is called whenever
// the port is free and at least one released task is unsent; the scheduler
// never sees future releases or actual (perturbed) task sizes.
type Scheduler interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Reset prepares internal state for a fresh run on the platform.
	Reset(pl core.Platform)
	// Decide picks the next action given the observable state.
	Decide(v View) Action
}

// slaveState is the ground-truth state of one slave.
type slaveState struct {
	queue     taskFIFO // arrived tasks waiting, FIFO (task indices)
	computing int      // task index, or -1
	started   float64  // when the computing task began
}

// Option configures an Engine.
type Option func(*Engine)

// WithUnboundedPort switches the engine to the macro-dataflow model the
// paper's Section 5 contrasts with: the master may transmit to any number
// of slaves simultaneously, so sends never contend for the port. Used by
// the model ablation to show that the one-port constraint is what makes
// link heterogeneity matter; schedules produced under this option violate
// the one-port validator by design (use core.ValidateMultiport).
func WithUnboundedPort() Option {
	return func(e *Engine) { e.unboundedPort = true }
}

// Engine simulates one scheduler on one platform. It owns ground truth
// only — the event heap, each slave's FIFO, actual costs, the port — and
// keeps everything the master knows in a Driver, told through the same
// calls the live runtime makes, so the scheduler is consulted through the
// same View on both substrates. The platform may
// change mid-run through the dynamics hooks in dynamics.go (slave
// failures, recoveries, joins, departures and speed drift); a static run
// never touches them.
type Engine struct {
	drv    *Driver       // the master's books: what the scheduler may know
	actual core.Platform // ground-truth costs: what sends and computations take
	sched  Scheduler

	unboundedPort bool

	now    float64
	events eventHeap
	// The initial workload's release "events" are never queued: tasks are
	// sorted by release date, so nextRelease streams them from the task
	// list directly and the heap holds only in-flight events (a handful:
	// per-slave completions, one send, wakes). That keeps every heap
	// operation near-constant depth instead of O(log n-tasks). Injected
	// tasks (the adversaries' path) still queue real release events; the
	// merge in peekNext keeps the combined order identical to a heap
	// holding everything.
	nextRelease int
	initial     int // the Driver's tasks[0:initial] are the sorted initial workload
	portFree    float64
	slaves      []slaveState

	// halt is the typed error that stops the simulation when the
	// scheduler targets a dead slave.
	halt error
}

// New builds an engine for the given platform, scheduler and initial task
// set. Tasks are normalized (sorted by release, densely renumbered) before
// the run; more tasks may be injected later via InjectTask.
func New(pl core.Platform, sched Scheduler, tasks []core.Task, opts ...Option) *Engine {
	inst := core.NewInstance(pl, tasks)
	m := inst.Platform.M()
	e := &Engine{
		actual: inst.Platform.Clone(),
		sched:  sched,
		slaves: make([]slaveState, m),
	}
	e.drv = NewDriver(inst.Platform, func() float64 { return e.now })
	// Beyond the streamed initial releases, a task queues at most two
	// coexisting events (send completion, compute completion).
	e.events.Grow(2*m + 8)
	for _, opt := range opts {
		opt(e)
	}
	for j := range e.slaves {
		e.slaves[j].computing = -1
	}
	sched.Reset(inst.Platform.Clone())
	// The initial workload is sorted by release (NewInstance normalizes),
	// so it is streamed by nextRelease rather than queued as heap events.
	// The master's per-task books are sized for it up front; a run without
	// injection or churn never grows them again.
	e.initial = len(inst.Tasks)
	e.drv.reserve(e.initial)
	for _, task := range inst.Tasks {
		e.drv.register(task)
	}
	return e
}

// InjectTask adds a task mid-run. Its release time must not precede the
// current simulation time. The assigned TaskID is returned.
func (e *Engine) InjectTask(task core.Task) core.TaskID {
	if task.Release < e.now {
		panic(fmt.Sprintf("sim: injecting task released at %v before now %v", task.Release, e.now))
	}
	id := e.drv.register(task)
	// Injected tasks release through the heap; ties with streamed initial
	// releases resolve in favor of the stream (see peekNext), matching
	// the old all-in-heap insertion order.
	e.events.Push(event{Time: task.Release, Kind: evRelease, Task: int32(id)})
	return id
}

// peekNext returns the next event in the merged order of the queued
// events and the streamed initial releases. A streamed release wins
// every tie against a queued event at the same time: releases carry the
// lowest kind, and within evRelease any queued (injected) release was
// created after every initial task, so the old all-in-heap order had it
// later too.
func (e *Engine) peekNext() (event, bool) {
	top, ok := e.events.Peek()
	if e.nextRelease < e.initial {
		rel := e.drv.tasks[e.nextRelease].Release
		if !ok || rel <= top.Time {
			return event{Time: rel, Kind: evRelease, Task: int32(e.nextRelease)}, true
		}
	}
	return top, ok
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Platform returns the platform under simulation.
func (e *Engine) Platform() core.Platform { return e.drv.Platform() }

// TaskCount returns the number of tasks known so far.
func (e *Engine) TaskCount() int { return e.drv.Admitted() }

// Started reports whether the algorithm has begun sending the task, and
// if so to which slave and when. This is the observation primitive used by
// the Section-3 adversaries ("we check whether A made a decision
// concerning the scheduling of i, and which one").
func (e *Engine) Started(task core.TaskID) (slave int, at float64, ok bool) {
	if int(task) >= len(e.drv.records) || !e.drv.sent(int(task)) {
		return 0, 0, false
	}
	r := e.drv.records[task]
	return r.Slave, r.SendStart, true
}

// Completed reports whether the task has finished computing.
func (e *Engine) Completed(task core.TaskID) bool {
	return int(task) < len(e.drv.state) && e.drv.state[task] == taskDone
}

// processEvent applies one event to the ground-truth state and tells the
// master what it would observe.
func (e *Engine) processEvent(ev event) {
	e.now = ev.Time
	task := int(ev.Task)
	switch ev.Kind {
	case evRelease:
		e.drv.markReleased(core.TaskID(task))
	case evSendComplete:
		j := int(ev.Dest)
		e.drv.MarkArrived(core.TaskID(task), j, e.now)
		s := &e.slaves[j]
		if s.computing < 0 {
			e.startCompute(j, task)
		} else {
			s.queue.Push(task)
		}
	case evComputeComplete:
		j := int(ev.Dest)
		s := &e.slaves[j]
		if s.computing != task {
			panic(fmt.Sprintf("sim: slave %d completed task %d while computing %d", j, task, s.computing))
		}
		e.drv.MarkCompleted(core.TaskID(task), j, s.started, e.now)
		s.computing = -1
		if s.queue.Len() > 0 {
			e.startCompute(j, s.queue.PopFront())
		}
	case evWake:
		// No state change; merely triggers a consult.
	}
}

func (e *Engine) startCompute(j, task int) {
	s := &e.slaves[j]
	s.computing = task
	s.started = e.now
	dur := float64(e.actual.P[j] * e.drv.tasks[task].EffComp())
	e.events.Push(event{Time: e.now + dur, Kind: evComputeComplete, Task: int32(task), Dest: int32(j)})
}

// consult gives the scheduler a chance to act. Called only when the port
// is free. Returns after the scheduler sends (port busy again), waits,
// idles, or commits a halting violation (dead-slave dispatch).
func (e *Engine) consult() {
	for e.halt == nil && e.portFree <= e.now && e.drv.PendingCount() > 0 {
		act := e.sched.Decide(e.drv.View())
		switch act.Kind {
		case ActSend:
			e.startSend(act.Task, act.Slave)
			if e.halt != nil {
				return
			}
			if e.unboundedPort {
				continue // the port never blocks: keep consulting
			}
			return // port is busy now
		case ActWait:
			if act.Until <= e.now {
				panic(fmt.Sprintf("sim: scheduler %s waits until %v which is not after now %v",
					e.sched.Name(), act.Until, e.now))
			}
			e.events.Push(event{Time: act.Until, Kind: evWake})
			return
		case ActIdle:
			return
		default:
			panic(fmt.Sprintf("sim: unknown action kind %d", act.Kind))
		}
	}
}

// startSend has the master book the dispatch, then occupies the port for
// the actual transfer time. The master predicts arrival with the nominal
// link cost; the actual arrival (evSendComplete) corrects its books.
func (e *Engine) startSend(task core.TaskID, j int) {
	if !e.drv.MarkSent(e.sched.Name(), task, j) {
		// A dead or departed target is an observable runtime condition, not
		// a programming error: surface it as a typed validation error and
		// halt the simulation instead of panicking or silently dropping.
		e.halt = &DeadSlaveError{Scheduler: e.sched.Name(), Task: task, Slave: j, Time: e.now, Departed: e.drv.departed[j]}
		return
	}
	dur := float64(e.actual.C[j] * e.drv.tasks[task].EffComm())
	arrive := e.now + dur
	if !e.unboundedPort {
		e.portFree = arrive
	}
	e.events.Push(event{Time: arrive, Kind: evSendComplete, Task: int32(task), Dest: int32(j)})
}

// step drains every event at the next event time, then consults the
// scheduler. It reports whether an event was processed.
func (e *Engine) step() bool {
	if e.halt != nil {
		return false
	}
	top, hasTop := e.events.Peek()
	var t float64
	switch {
	case e.nextRelease < e.initial:
		t = e.drv.tasks[e.nextRelease].Release
		if hasTop && top.Time < t {
			t = top.Time
		}
	case hasTop:
		t = top.Time
	default:
		return false
	}
	// Streamed initial releases at t precede every queued event at t
	// (evRelease is the lowest kind and initial tasks predate all queued
	// events of that kind), so the whole batch drains first, inline.
	for e.nextRelease < e.initial && e.drv.tasks[e.nextRelease].Release == t {
		e.now = t
		e.drv.markReleased(core.TaskID(e.nextRelease))
		e.nextRelease++
	}
	for hasTop && top.Time == t {
		e.processEvent(e.events.Pop())
		top, hasTop = e.events.Peek()
	}
	e.consult()
	return true
}

// AdvanceTo processes all events up to and including time t and then sets
// the clock to t. The scheduler is consulted as usual along the way.
func (e *Engine) AdvanceTo(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: cannot advance backwards from %v to %v", e.now, t))
	}
	for e.halt == nil {
		ev, ok := e.peekNext()
		if !ok || ev.Time > t {
			break
		}
		e.step()
	}
	e.now = t
}

// Run drives the simulation to completion and returns the full schedule.
// It fails if the scheduler permanently idles while work is pending, or
// with the typed DeadSlaveError if it dispatched to a dead slave. Tasks
// destroyed by slave failures (dynamics.go) are exempt from the
// completion requirement — their re-released clones are not.
func (e *Engine) Run() (core.Schedule, error) {
	for e.step() {
	}
	if e.halt != nil {
		return core.Schedule{}, e.halt
	}
	if want := e.drv.Admitted() - e.drv.lost; e.drv.Done() != want {
		return core.Schedule{}, fmt.Errorf("sim: scheduler %s completed %d of %d tasks (idle deadlock at t=%v with %d pending)",
			e.sched.Name(), e.drv.Done(), want, e.now, e.drv.PendingCount())
	}
	return e.Snapshot(), nil
}

// Snapshot assembles the schedule from the records produced so far. It is
// primarily useful after Run; during a run, records of unfinished tasks
// have zero fields.
func (e *Engine) Snapshot() core.Schedule { return e.drv.Schedule() }

// Simulate is the one-call convenience wrapper: build, run, validate.
func Simulate(pl core.Platform, sched Scheduler, tasks []core.Task) (core.Schedule, error) {
	s, err := New(pl, sched, tasks).Run()
	if err != nil {
		return core.Schedule{}, err
	}
	if err := core.ValidateSchedule(s); err != nil {
		return core.Schedule{}, fmt.Errorf("sim: %s produced an infeasible schedule: %w", sched.Name(), err)
	}
	return s, nil
}

// SimulateMultiport runs the scheduler under the macro-dataflow model
// (unbounded master ports) and validates everything except the one-port
// constraint.
func SimulateMultiport(pl core.Platform, sched Scheduler, tasks []core.Task) (core.Schedule, error) {
	s, err := New(pl, sched, tasks, WithUnboundedPort()).Run()
	if err != nil {
		return core.Schedule{}, err
	}
	if err := core.ValidateMultiport(s); err != nil {
		return core.Schedule{}, fmt.Errorf("sim: %s produced an infeasible multiport schedule: %w", sched.Name(), err)
	}
	return s, nil
}
