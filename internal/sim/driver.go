package sim

// Driver is the master-side half of the one-port model: the admitted task
// list, the pending (released, unsent) queue, the dispatch Ledger,
// per-task schedule records, slave liveness, and the observation feed of
// actual send/computation durations. Both concrete masters — the
// discrete-event engine and the concurrent live runtime in internal/live,
// which the Section-4 cluster experiment (internal/mpiexp) also runs on —
// keep these books in a Driver and consult their Scheduler through the
// Driver's View.
//
// The engine's Driver keeps every task's books for the whole run: its
// Schedule is the run's outcome. The live master's Driver, built with
// NewRetiringDriver, keeps books only for the window of tasks from the
// oldest unfinished one to the newest: a master needs a task's state
// only until it completes (or is retracted), and the runtime's tracker
// holds the finished lifecycle. Its memory grows with the backlog, not
// with the number of tasks ever served.
//
// The Driver holds exactly the state a real master can know. It is told
// about admissions, dispatch decisions, arrivals, completions and
// membership changes by the substrate that owns ground truth (the event
// heap, a virtual-time kernel, goroutine workers, or a physical cluster),
// so the same unmodified Scheduler implementations run on every substrate
// and — on deterministic substrates — make the same decisions bit for bit.

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// Driver is master-side bookkeeping for one run. It is not safe for
// concurrent use: all mutation must come from the single master loop.
type Driver struct {
	pl  core.Platform // nominal costs: what the master believes
	now func() float64
	// Per-task books, entry i for task off+i. Entries below head are
	// retired (finished, read as such); only a retiring Driver retires,
	// so the engine's off and head stay 0 and entry i is task i.
	tasks    []core.Task
	records  []core.Record
	state    []taskState
	off      int
	head     int
	retiring bool
	pending  taskFIFO // released, unsent task IDs, FIFO
	ledger   *Ledger
	obsComm  []ewma // observed send durations per slave
	obsComp  []ewma // observed computation durations per slave

	// Membership (dynamics.go): a static master never changes these.
	alive    []bool
	departed []bool

	completed int
	retracted int
	lost      int // attempts destroyed by Fail/Leave
}

// taskState is where one task stands in the master's books. Done and
// retracted tasks are finished: a retiring Driver drops their books once
// every older task is finished too.
type taskState uint8

const (
	taskUnsent taskState = iota
	taskSent
	taskDone
	taskRetracted
)

// NewDriver creates bookkeeping for a master serving the given platform.
// The now function supplies the substrate's current time; the View and
// validation messages use it.
func NewDriver(pl core.Platform, now func() float64) *Driver {
	m := pl.M()
	d := &Driver{
		pl:       pl.Clone(),
		now:      now,
		ledger:   NewLedger(m),
		obsComm:  make([]ewma, m),
		obsComp:  make([]ewma, m),
		alive:    make([]bool, m),
		departed: make([]bool, m),
	}
	for j := range d.alive {
		d.alive[j] = true
	}
	return d
}

// NewRetiringDriver is NewDriver for a serving master: the books of a
// finished task are retired as soon as every older task has finished, so
// they cover only IDs from the oldest unfinished task to the newest. A
// retired ID counts as finished — MarkSent on it panics as a re-send —
// and Task, View.Release and Schedule, which would read retired books,
// panic instead. Task IDs, decisions and every View answer are the
// non-retiring Driver's.
func NewRetiringDriver(pl core.Platform, now func() float64) *Driver {
	d := NewDriver(pl, now)
	d.retiring = true
	return d
}

// reserve sizes the per-task bookkeeping for n more tasks, so a master
// that knows its workload up front never grows it again.
func (d *Driver) reserve(n int) {
	d.tasks = slices.Grow(d.tasks, n)
	d.records = slices.Grow(d.records, n)
	d.state = slices.Grow(d.state, n)
	d.pending.grow(n)
}

// register makes a task known to the master without releasing it: the
// ID is assigned densely in registration order and the record opened.
func (d *Driver) register(task core.Task) core.TaskID {
	if n := len(d.tasks); n == cap(d.tasks) && d.head > n/2 {
		// Mostly retired: slide the window down instead of growing the
		// books behind the advancing head.
		d.tasks = d.tasks[:copy(d.tasks, d.tasks[d.head:])]
		d.records = d.records[:copy(d.records, d.records[d.head:])]
		d.state = d.state[:copy(d.state, d.state[d.head:])]
		d.off, d.head = d.off+d.head, 0
	}
	task.ID = core.TaskID(d.Admitted())
	d.tasks = append(d.tasks, task)
	d.records = append(d.records, core.Record{Task: task.ID, Slave: -1, Release: task.Release})
	d.state = append(d.state, taskUnsent)
	return task.ID
}

// entry returns the books index of an admitted task that is not retired,
// panicking (naming the ID) on a retired one.
func (d *Driver) entry(task core.TaskID) int {
	idx := int(task) - d.off
	if idx < d.head {
		panic(fmt.Sprintf("sim: task %d is retired: its books are gone", task))
	}
	return idx
}

// sent reports whether the task at books index idx has been dispatched.
func (d *Driver) sent(idx int) bool { return d.state[idx] == taskSent || d.state[idx] == taskDone }

// finish marks a task done or retracted and, on a retiring Driver,
// retires the books of every finished task at the front of the window.
// A window that empties rewinds, keeping its arrays up to keptBooks
// entries: larger ones, a burst's peak, are let go.
func (d *Driver) finish(idx int, st taskState) {
	d.state[idx] = st
	if !d.retiring {
		return
	}
	for d.head < len(d.state) && d.state[d.head] >= taskDone {
		d.head++
	}
	if d.head == len(d.state) {
		d.off += d.head
		d.tasks, d.records, d.state, d.head = d.tasks[:0], d.records[:0], d.state[:0], 0
		if cap(d.tasks) > keptBooks {
			d.tasks, d.records, d.state = nil, nil, nil
		}
	}
}

// keptBooks is the most book entries an empty window keeps for reuse
// (about 100 KB).
const keptBooks = 1024

// markReleased appends a registered task to the pending queue.
func (d *Driver) markReleased(task core.TaskID) { d.pending.Push(int(task)) }

// Admit registers a task the master just learned about and appends it to
// the pending queue. Task IDs are assigned densely in admission order
// (the Release field is kept as given: for streaming masters it is the
// moment the submission arrived). The assigned ID is returned. The engine,
// which knows tasks before their release dates, takes the two halves
// (register, markReleased) separately.
func (d *Driver) Admit(task core.Task) core.TaskID {
	id := d.register(task)
	d.markReleased(id)
	return id
}

// MarkSent validates and records a dispatch decision made at the current
// time: the task leaves the pending queue, its send start is stamped, and
// the ledger predicts its arrival with the nominal link cost. Scheduler
// protocol violations (unknown task, unknown slave, re-send, unreleased
// task) are programming errors and panic. A dead or departed target is an
// observable runtime condition instead: MarkSent changes nothing and
// reports false, and the substrate decides what that means (the engine
// halts with a DeadSlaveError; masters of static platforms cannot get
// there without a bug).
func (d *Driver) MarkSent(scheduler string, task core.TaskID, j int) bool {
	if task < 0 || int(task) >= d.Admitted() {
		panic(fmt.Sprintf("sim: scheduler %s sent unknown task %d", scheduler, task))
	}
	if j < 0 || j >= d.pl.M() {
		panic(fmt.Sprintf("sim: scheduler %s used unknown slave %d", scheduler, j))
	}
	idx := int(task) - d.off
	if idx < d.head || d.sent(idx) {
		panic(fmt.Sprintf("sim: scheduler %s re-sent task %d", scheduler, task))
	}
	pos := d.pending.IndexOf(int(task))
	if pos < 0 {
		panic(fmt.Sprintf("sim: scheduler %s sent unreleased task %d at %v", scheduler, task, d.now()))
	}
	if !d.alive[j] {
		return false
	}
	d.pending.RemoveAt(pos)
	d.state[idx] = taskSent
	now := d.now()
	d.records[idx].Slave = j
	d.records[idx].SendStart = now
	d.ledger.Assign(j, int(task), now+d.pl.C[j])
	return true
}

// MarkArrived records the observed send completion: the master
// experiences its own port, so the actual transfer duration feeds the
// observation stream and corrects the ledger's arrival prediction.
func (d *Driver) MarkArrived(task core.TaskID, j int, at float64) {
	idx := d.entry(task)
	d.records[idx].Arrive = at
	d.obsComm[j].observe(at - d.records[idx].SendStart)
	d.ledger.Arrived(j, int(task), at)
}

// MarkCompleted records a completion notification carrying the slave's
// reported computation window. The actual computation duration feeds the
// observation stream.
func (d *Driver) MarkCompleted(task core.TaskID, j int, start, complete float64) {
	idx := d.entry(task)
	d.records[idx].Start = start
	d.records[idx].Complete = complete
	d.completed++
	d.obsComp[j].observe(complete - start)
	d.ledger.Completed(j, int(task), complete)
	d.finish(idx, taskDone)
}

// RetractNewest removes up to n tasks from the BACK of the pending queue
// and returns them in retraction order (newest first). Retraction is the
// master-side half of cross-shard work stealing: the thief takes the
// youngest backlog — the work-stealing-deque discipline — so the jobs
// the owner is about to dispatch (the FIFO front) keep their position
// and the migrated jobs are the ones that would have waited longest.
// A retracted task stays admitted (IDs remain dense) but is permanently
// out of the pending queue: it can never be sent here, its record keeps
// zero dispatch fields, and Done+Retracted==Admitted is the completion
// condition for masters that allow stealing.
func (d *Driver) RetractNewest(n int) []core.Task {
	if n > d.pending.Len() {
		n = d.pending.Len()
	}
	if n <= 0 {
		return nil
	}
	out := make([]core.Task, 0, n)
	for i := 0; i < n; i++ {
		last := d.pending.Len() - 1
		idx := d.pending.At(last) - d.off
		d.pending.RemoveAt(last)
		d.retracted++
		out = append(out, d.tasks[idx])
		d.finish(idx, taskRetracted)
	}
	return out
}

// Admitted returns the number of tasks admitted so far.
func (d *Driver) Admitted() int { return d.off + len(d.tasks) }

// Retracted returns the number of tasks retracted by RetractNewest.
func (d *Driver) Retracted() int { return d.retracted }

// Done returns the number of completed tasks.
func (d *Driver) Done() int { return d.completed }

// PendingCount returns the number of released, unsent tasks.
func (d *Driver) PendingCount() int { return d.pending.Len() }

// Task returns an admitted task by ID. It panics on a retired one.
func (d *Driver) Task(id core.TaskID) core.Task { return d.tasks[d.entry(id)] }

// Platform returns the nominal platform the master believes in.
func (d *Driver) Platform() core.Platform { return d.pl }

// View returns the scheduler-visible projection of the master's state.
func (d *Driver) View() View { return View{d} }

// Schedule assembles the schedule recorded so far. On a completed run it
// is a full, validatable core.Schedule; mid-run, records of unfinished
// tasks have zero fields. A retiring Driver has no schedule to give: it
// panics.
func (d *Driver) Schedule() core.Schedule {
	if d.retiring {
		panic("sim: Schedule on a retiring Driver: finished tasks' books are retired")
	}
	inst := core.Instance{Platform: d.pl.Clone(), Tasks: append([]core.Task(nil), d.tasks...)}
	return core.Schedule{Instance: inst, Records: append([]core.Record(nil), d.records...)}
}

// View is the scheduler-visible projection of a master's books: static
// platform costs, the pending queue, the dispatch ledger, slave liveness
// and the observation feed — never future releases or actual perturbed
// sizes. It is a handle on the one Driver every substrate keeps, so a
// Scheduler sees the same surface, computed by the same float
// expressions, wherever it runs.
type View struct{ d *Driver }

// Now returns the current time.
func (v View) Now() float64 { return v.d.now() }

// M returns the number of slaves.
func (v View) M() int { return v.d.pl.M() }

// Comm returns the nominal communication time c_j.
func (v View) Comm(j int) float64 { return v.d.pl.C[j] }

// Comp returns the nominal computation time p_j.
func (v View) Comp(j int) float64 { return v.d.pl.P[j] }

// PendingCount returns the number of released, unsent tasks.
func (v View) PendingCount() int { return v.d.pending.Len() }

// PendingAt returns the i-th pending task in release (FIFO) order.
func (v View) PendingAt(i int) core.TaskID { return core.TaskID(v.d.pending.At(i)) }

// FirstPending returns the oldest pending task.
func (v View) FirstPending() (core.TaskID, bool) {
	t, ok := v.d.pending.Front()
	return core.TaskID(t), ok
}

// Release returns the release time of a task.
func (v View) Release(task core.TaskID) float64 { return v.d.tasks[v.d.entry(task)].Release }

// Outstanding returns the number of tasks assigned to slave j and not yet
// completed (in flight, queued, or computing).
func (v View) Outstanding(j int) int { return v.d.ledger.Outstanding(j) }

// ReadyEstimate returns the master's nominal-cost estimate of when slave
// j will drain its outstanding backlog.
func (v View) ReadyEstimate(j int) float64 { return v.d.ledger.Ready(j, v.d.pl.P[j]) }

// PredictFinish estimates the completion time of a task sent to slave j
// right now, under nominal costs: the send occupies [now, now+c_j], the
// computation starts when both the task has arrived and the slave is
// free. The max is spelled out (finite operands) — this runs once per
// slave per list-scheduler decision.
func (v View) PredictFinish(j int) float64 {
	start := v.d.now() + v.d.pl.C[j]
	if ready := v.ReadyEstimate(j); ready > start {
		start = ready
	}
	return start + v.d.pl.P[j]
}

// Alive reports whether slave j currently accepts sends. On a static
// platform every slave does.
func (v View) Alive(j int) bool { return v.d.alive[j] }

// ObservedComm returns a recency-weighted average of the actual send
// durations to slave j, and whether any send has completed yet.
func (v View) ObservedComm(j int) (float64, bool) {
	o := v.d.obsComm[j]
	return o.mean, o.seen
}

// ObservedComp returns a recency-weighted average of the actual
// computation durations on slave j, and whether any task has finished.
func (v View) ObservedComp(j int) (float64, bool) {
	o := v.d.obsComp[j]
	return o.mean, o.seen
}
