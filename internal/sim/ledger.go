package sim

// Ledger is the bookkeeping a real master can maintain about its slaves:
// it records its own dispatch decisions, the actual send durations (the
// master experiences its own port), and completion notifications, and
// estimates slave readiness using nominal computation times for
// everything still outstanding. Every master's Driver keeps one, so the
// substrates agree decision-for-decision.
//
// Ready is a fold over the slave's backlog, and list schedulers call it
// for every slave on every decision. The fold is kept incrementally:
// every unit carries the fold's value after it, so a mutation re-folds
// only from the unit it touched. Assign extends the fold by one step,
// Arrived re-folds from the corrected unit (the newest, under one port),
// and a completion at the head that lands exactly on the head's own
// prefix — every nominal job on a FIFO slave — leaves the later prefixes
// standing. A job then costs O(1) however deep the backlog it waits in;
// only a perturbed completion, Sync, or a changed nominalComp re-folds
// the whole backlog. Every step is the float operation the plain fold
// would run, in its order, so answers are bit-identical to it by
// construction (pinned by the differential suite).
type Ledger struct {
	slaves []slaveLedger
}

// slaveLedger is one slave's backlog and the fold over it.
type slaveLedger struct {
	units    []ledgerUnit // units[head:] are outstanding, in dispatch order
	head     int
	lastSync float64 // latest time the slave was known idle
	foldedAt float64 // the nominalComp the standing prefixes were folded with
	folded   int     // outstanding units, from the head, whose ready stands
}

// ledgerUnit is one outstanding task: the arrival time is actual once the
// send completed, predicted before that. ready is the fold's prefix value:
// when the slave finishes this unit, by the master's estimate.
type ledgerUnit struct {
	task    int
	arrival float64
	ready   float64
}

// NewLedger creates bookkeeping for m slaves.
func NewLedger(m int) *Ledger {
	return &Ledger{slaves: make([]slaveLedger, m)}
}

// Assign records that a task's send to slave j has started, with the
// nominal-cost arrival prediction.
func (l *Ledger) Assign(j, task int, predictedArrival float64) {
	s := &l.slaves[j]
	if n := len(s.units); n == cap(s.units) && s.head > n/2 {
		// Mostly consumed: slide the outstanding units down instead of
		// growing behind the advancing head.
		s.units, s.head = s.units[:copy(s.units, s.units[s.head:])], 0
	}
	s.units = append(s.units, ledgerUnit{task: task, arrival: predictedArrival})
}

// Arrived corrects the task's arrival to the observed send completion.
// The scan runs backwards: units are stored in dispatch order and the
// one-port master has at most one send in flight, so the arriving task
// is the most recently assigned unit — the backward scan finds it in one
// step (and stays correct, just longer, under the unbounded-port model).
func (l *Ledger) Arrived(j, task int, actual float64) {
	s := &l.slaves[j]
	units := s.units[s.head:]
	for i := len(units) - 1; i >= 0; i-- {
		if units[i].task == task {
			units[i].arrival = actual
			s.folded = min(s.folded, i)
			return
		}
	}
}

// Completed removes the task from slave j's backlog after a completion
// notification at the given time.
func (l *Ledger) Completed(j, task int, at float64) {
	s := &l.slaves[j]
	if at > s.lastSync {
		s.lastSync = at
	}
	units, standing := s.units[s.head:], 0
	for i := range units {
		if units[i].task == task {
			// The fold now starts from lastSync where it used to continue
			// from the head's prefix: equal bits, equal prefixes after it.
			if i == 0 && s.folded > 0 && units[0].ready == s.lastSync {
				standing = s.folded - 1
			}
			copy(units[1:i+1], units[:i]) // no-op at the head, a FIFO slave's only case
			s.head++
			break
		}
	}
	s.folded = standing
	if s.head == len(s.units) {
		s.units, s.head = s.units[:0], 0
	}
}

// Fail clears slave j's backlog after a failure notification at the given
// time: every outstanding unit is gone with the slave.
func (l *Ledger) Fail(j int, at float64) {
	s := &l.slaves[j]
	s.units, s.head, s.folded = s.units[:0], 0, 0
	if at > s.lastSync {
		s.lastSync = at
	}
}

// Sync records that slave j was known idle at the given time (e.g. it
// just recovered with an empty queue).
func (l *Ledger) Sync(j int, at float64) {
	if s := &l.slaves[j]; at > s.lastSync {
		s.lastSync, s.folded = at, 0
	}
}

// AddSlave extends the bookkeeping for a slave joining at the given time.
func (l *Ledger) AddSlave(at float64) {
	l.slaves = append(l.slaves, slaveLedger{lastSync: at})
}

// Outstanding returns the number of assigned, unfinished tasks on slave j.
func (l *Ledger) Outstanding(j int) int { return len(l.slaves[j].units) - l.slaves[j].head }

// Ready estimates when slave j drains its backlog, charging nominalComp
// per outstanding task: the last unit's prefix, after folding whatever
// the mutations since the previous call left unfolded.
func (l *Ledger) Ready(j int, nominalComp float64) float64 {
	s := &l.slaves[j]
	if s.foldedAt != nominalComp {
		s.foldedAt, s.folded = nominalComp, 0
	}
	units := s.units[s.head:]
	t := s.lastSync
	if s.folded > 0 {
		t = units[s.folded-1].ready
	}
	for i := s.folded; i < len(units); i++ {
		if units[i].arrival > t {
			t = units[i].arrival
		}
		t += nominalComp
		units[i].ready = t
	}
	s.folded = len(units)
	return t
}
