package sim

// Dynamic-platform support: the hooks internal/scenario uses to script
// slave failures, recoveries, joins, departures and speed drift on top of
// the one-port engine. A static simulation never calls anything in this
// file and is bit-for-bit unaffected by it. Each hook has two halves: what
// the master learns (liveness, the ledger, Lost marks, the advertised
// platform) is the Driver's; what actually happens to the slave (cancelled
// events, its queue, actual costs, the port) is the Engine's.
//
// Semantics, in one place:
//
//   - FailSlave(j) destroys everything slave j holds — the in-flight send
//     to it (the port is released immediately; the master notices the dead
//     link), its queued tasks and the task it is computing. The destroyed
//     attempts are marked Lost in their records and returned so the caller
//     can re-release clones to the master (the scenario engine's
//     re-dispatch policy). A dead slave accepts no sends: a scheduler that
//     targets one halts the run with a typed DeadSlaveError.
//   - RecoverSlave(j) brings a failed slave back, empty-queued.
//   - LeaveSlave(j) is FailSlave plus permanence: a departed slave can
//     never recover.
//   - AddSlave(c, p) appends a new slave, visible to the scheduler through
//     View.M() from the next decision on.
//   - DriftCosts(j, c, p) changes the slave's ACTUAL costs only: the
//     nominal costs the View advertises stay at their advertised values,
//     which is exactly the information asymmetry the speed-oblivious
//     scheduling literature studies. Schedulers can learn the truth from
//     the observation feed (ObservedComm/ObservedComp).

import (
	"fmt"

	"repro/internal/core"
)

// DeadSlaveError reports a scheduler decision that dispatched a task to a
// slave that had failed (or departed) before the send started. It is a
// validation error, not a panic: under dynamic platforms a scheduler that
// ignores failure notifications can reach this state without a bug in the
// engine, and sweeps need to surface which scheduler did so at what time.
type DeadSlaveError struct {
	Scheduler string
	Task      core.TaskID
	Slave     int
	Time      float64
	Departed  bool // true if the slave left for good rather than failed
}

// Error implements error.
func (e *DeadSlaveError) Error() string {
	state := "failed"
	if e.Departed {
		state = "departed"
	}
	return fmt.Sprintf("sim: scheduler %s sent task %d to %s slave %d at t=%v",
		e.Scheduler, e.Task, state, e.Slave, e.Time)
}

// ewma is a recency-weighted duration average. Smoothing at 1/2 tracks
// speed drift within a couple of completions while damping the per-task
// size perturbation.
type ewma struct {
	mean float64
	seen bool
}

func (o *ewma) observe(x float64) {
	if !o.seen {
		o.mean, o.seen = x, true
		return
	}
	o.mean = (o.mean + x) / 2
}

// checkSlave panics on out-of-range slave indices: dynamics callers are
// trusted scenario code, so a bad index is a programming error.
func (d *Driver) checkSlave(j int) {
	if j < 0 || j >= d.pl.M() {
		panic(fmt.Sprintf("sim: dynamics on unknown slave %d (m=%d)", j, d.pl.M()))
	}
}

// Fail records that slave j died at the current time: it stops accepting
// sends, the master's ledger for it is cleared, and every attempt it held
// unfinished (in flight, queued or computing) is marked Lost in its
// record. The destroyed attempts are returned in task-ID order;
// re-releasing them (or not) is the caller's policy.
func (d *Driver) Fail(j int) []core.TaskID {
	d.checkSlave(j)
	if !d.alive[j] {
		panic(fmt.Sprintf("sim: failing slave %d which is already down", j))
	}
	d.alive[j] = false
	var lost []core.TaskID
	for idx := d.head; idx < len(d.records); idx++ {
		r := &d.records[idx]
		if d.state[idx] == taskSent && !r.Lost && r.Slave == j {
			r.Lost = true
			d.lost++
			lost = append(lost, core.TaskID(d.off+idx))
		}
	}
	d.ledger.Fail(j, d.now())
	return lost
}

// Leave is a permanent departure: Fail plus the guarantee that the slave
// never recovers (Recover panics on it).
func (d *Driver) Leave(j int) []core.TaskID {
	lost := d.Fail(j)
	d.departed[j] = true
	return lost
}

// Recover brings a failed slave back at the current time, known idle.
func (d *Driver) Recover(j int) {
	d.checkSlave(j)
	if d.departed[j] {
		panic(fmt.Sprintf("sim: recovering slave %d which departed for good", j))
	}
	if d.alive[j] {
		panic(fmt.Sprintf("sim: recovering slave %d which is alive", j))
	}
	d.alive[j] = true
	d.ledger.Sync(j, d.now())
}

// AddSlave appends a new slave with the given nominal costs and returns
// its index. The scheduler sees the platform grow through View.M() on its
// next decision; the observation feed has seen nothing of it yet.
func (d *Driver) AddSlave(c, p float64) int {
	if c <= 0 || p <= 0 {
		panic(fmt.Sprintf("sim: joining slave has non-positive costs c=%v p=%v", c, p))
	}
	d.pl.C = append(d.pl.C, c)
	d.pl.P = append(d.pl.P, p)
	d.alive = append(d.alive, true)
	d.departed = append(d.departed, false)
	d.obsComm = append(d.obsComm, ewma{})
	d.obsComp = append(d.obsComp, ewma{})
	d.ledger.AddSlave(d.now())
	return d.pl.M() - 1
}

// SlaveAlive reports whether slave j currently accepts sends.
func (e *Engine) SlaveAlive(j int) bool {
	e.drv.checkSlave(j)
	return e.drv.alive[j]
}

// Err returns the halting validation error, if the scheduler committed
// one (currently: dispatching to a dead slave). Once set, the engine
// processes no further events; Run returns it.
func (e *Engine) Err() error { return e.halt }

// Task returns the task with the given ID (including injected ones).
func (e *Engine) Task(id core.TaskID) core.Task { return e.drv.Task(id) }

// FailSlave kills slave j at the current time. Its in-flight send is
// aborted (freeing the master's port immediately), its queue and the task
// it is computing are destroyed, and the master's bookkeeping for it is
// cleared. The destroyed attempts are marked Lost and returned in task-ID
// order; re-releasing them (or not) is the caller's policy.
func (e *Engine) FailSlave(j int) []core.TaskID {
	lost := e.drv.Fail(j)
	e.destroySlave(j)
	return lost
}

// LeaveSlave is a permanent departure: FailSlave plus the guarantee that
// the slave never recovers (RecoverSlave panics on it).
func (e *Engine) LeaveSlave(j int) []core.TaskID {
	lost := e.drv.Leave(j)
	e.destroySlave(j)
	return lost
}

// destroySlave is the ground-truth half of a failure: the slave's
// scheduled events are cancelled, its queue emptied, and the port freed
// if it was transmitting to it.
func (e *Engine) destroySlave(j int) {
	// Cancel the in-flight send (at most one under the one-port model) and
	// the completion of the task the slave computes.
	canceledSend := false
	e.events.Filter(func(ev event) bool {
		if (ev.Kind == evSendComplete || ev.Kind == evComputeComplete) && int(ev.Dest) == j {
			if ev.Kind == evSendComplete {
				canceledSend = true
			}
			return false
		}
		return true
	})
	if canceledSend && !e.unboundedPort {
		e.portFree = e.now // the master stops transmitting into a dead link
	}
	s := &e.slaves[j]
	s.queue.Reset()
	s.computing = -1
}

// RecoverSlave brings a failed slave back at the current time, with an
// empty queue. Call Kick afterwards to give the scheduler an immediate
// decision opportunity.
func (e *Engine) RecoverSlave(j int) { e.drv.Recover(j) }

// AddSlave appends a new slave with the given nominal (= initial actual)
// costs and returns its index. The scheduler sees the platform grow
// through View.M() on its next decision.
func (e *Engine) AddSlave(c, p float64) int {
	j := e.drv.AddSlave(c, p)
	e.actual.C = append(e.actual.C, c)
	e.actual.P = append(e.actual.P, p)
	e.slaves = append(e.slaves, slaveState{computing: -1})
	return j
}

// DriftCosts changes slave j's actual per-task costs from now on. The
// nominal costs the View advertises are untouched: the master keeps
// planning with stale values unless the scheduler learns from the
// observation feed. Tasks already in flight or computing keep the
// durations they started with.
func (e *Engine) DriftCosts(j int, c, p float64) {
	e.drv.checkSlave(j)
	if c <= 0 || p <= 0 {
		panic(fmt.Sprintf("sim: drifting slave %d to non-positive costs c=%v p=%v", j, c, p))
	}
	e.actual.C[j] = c
	e.actual.P[j] = p
}

// Kick gives the scheduler an immediate decision opportunity at the
// current time (if the port is free and work is pending). Dynamics events
// such as a recovery change the world without queueing a simulation
// event, so callers use Kick to wake the scheduler afterwards.
func (e *Engine) Kick() {
	if e.halt == nil {
		e.consult()
	}
}
