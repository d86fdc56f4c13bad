package sim

// Ledger is the bookkeeping a real master can maintain about its slaves:
// it records its own dispatch decisions, the actual send durations (the
// master experiences its own port), and completion notifications, and
// estimates slave readiness using nominal computation times for
// everything still outstanding. Every master's Driver keeps one, so the
// substrates agree decision-for-decision.
//
// Ready used to re-fold the whole outstanding backlog on every call;
// list schedulers call it for every slave on every decision, which made
// dispatch O(m·backlog). The estimate is now memoized per slave and
// invalidated only by the mutations that can change it, so between state
// changes every Ready call is O(1) and a decision touches only the
// backlogs that actually moved. The memo stores the value the fold
// would produce — recomputation runs the identical float operations —
// so cached and uncached runs are bit-identical by construction (pinned
// by the differential suite).
type Ledger struct {
	units    [][]ledgerUnit // per slave, in dispatch order
	lastSync []float64      // latest time the slave was known idle
	ready    []float64      // memoized Ready value per slave
	readyFor []float64      // the nominalComp each memo was computed with
	fresh    []bool         // memo validity
}

// ledgerUnit is one outstanding task: the arrival time is actual once the
// send completed, predicted before that.
type ledgerUnit struct {
	task    int
	arrival float64
}

// NewLedger creates bookkeeping for m slaves.
func NewLedger(m int) *Ledger {
	return &Ledger{
		units:    make([][]ledgerUnit, m),
		lastSync: make([]float64, m),
		ready:    make([]float64, m),
		readyFor: make([]float64, m),
		fresh:    make([]bool, m),
	}
}

// Assign records that a task's send to slave j has started, with the
// nominal-cost arrival prediction.
func (l *Ledger) Assign(j, task int, predictedArrival float64) {
	l.units[j] = append(l.units[j], ledgerUnit{task: task, arrival: predictedArrival})
	l.fresh[j] = false
}

// Arrived corrects the task's arrival to the observed send completion.
// The scan runs backwards: units are stored in dispatch order and the
// one-port master has at most one send in flight, so the arriving task
// is the most recently assigned unit — the backward scan finds it in one
// step (and stays correct, just longer, under the unbounded-port model).
func (l *Ledger) Arrived(j, task int, actual float64) {
	units := l.units[j]
	for i := len(units) - 1; i >= 0; i-- {
		if units[i].task == task {
			units[i].arrival = actual
			l.fresh[j] = false
			return
		}
	}
}

// Completed removes the task from slave j's backlog after a completion
// notification at the given time.
func (l *Ledger) Completed(j, task int, at float64) {
	units := l.units[j]
	for i := range units {
		if units[i].task == task {
			l.units[j] = append(units[:i], units[i+1:]...)
			break
		}
	}
	if at > l.lastSync[j] {
		l.lastSync[j] = at
	}
	l.fresh[j] = false
}

// Fail clears slave j's backlog after a failure notification at the given
// time: every outstanding unit is gone with the slave.
func (l *Ledger) Fail(j int, at float64) {
	l.units[j] = l.units[j][:0]
	if at > l.lastSync[j] {
		l.lastSync[j] = at
	}
	l.fresh[j] = false
}

// Sync records that slave j was known idle at the given time (e.g. it
// just recovered with an empty queue).
func (l *Ledger) Sync(j int, at float64) {
	if at > l.lastSync[j] {
		l.lastSync[j] = at
		l.fresh[j] = false
	}
}

// AddSlave extends the bookkeeping for a slave joining at the given time.
func (l *Ledger) AddSlave(at float64) {
	l.units = append(l.units, nil)
	l.lastSync = append(l.lastSync, at)
	l.ready = append(l.ready, 0)
	l.readyFor = append(l.readyFor, 0)
	l.fresh = append(l.fresh, false)
}

// Outstanding returns the number of assigned, unfinished tasks on slave j.
func (l *Ledger) Outstanding(j int) int { return len(l.units[j]) }

// Ready estimates when slave j drains its backlog, charging nominalComp
// per outstanding task. The estimate is served from the memo when no
// mutation has touched the slave since it was computed (with the same
// nominalComp); otherwise the fold below recomputes it.
func (l *Ledger) Ready(j int, nominalComp float64) float64 {
	if l.fresh[j] && l.readyFor[j] == nominalComp {
		return l.ready[j]
	}
	t := l.lastSync[j]
	for _, u := range l.units[j] {
		if u.arrival > t {
			t = u.arrival
		}
		t += nominalComp
	}
	l.ready[j] = t
	l.readyFor[j] = nominalComp
	l.fresh[j] = true
	return t
}
