package live

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sim"
)

// EventKind labels runtime events.
type EventKind int

const (
	// EvSubmitted marks a job entering the master's pending queue.
	EvSubmitted EventKind = iota
	// EvSent marks the master acquiring the port for a dispatch.
	EvSent
	// EvArrived marks a transfer completing (the task is at the slave).
	EvArrived
	// EvStarted marks the slave beginning the computation (reported
	// retroactively with the completion notification, like a real
	// master learns it).
	EvStarted
	// EvCompleted marks the computation finishing.
	EvCompleted
	// EvRetracted marks a pending job leaving this master's queue via a
	// steal (it will be re-admitted on another runtime; see
	// Runtime.StealPending).
	EvRetracted
)

// String returns the event kind's wire name.
func (k EventKind) String() string {
	switch k {
	case EvSubmitted:
		return "submitted"
	case EvSent:
		return "sent"
	case EvArrived:
		return "arrived"
	case EvStarted:
		return "started"
	case EvCompleted:
		return "completed"
	case EvRetracted:
		return "retracted"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one lifecycle event, emitted by the master in the order it
// learned things. Observer callbacks receive the stream live;
// Result.Events reads the same facts back off the drained schedule.
type Event struct {
	T     float64   `json:"t"`
	Kind  EventKind `json:"kind"`
	Task  int       `json:"task"`
	Slave int       `json:"slave"` // -1 while unassigned
}

// program is the actor code shared by both substrates: one master, m
// slaves. All scheduling state lives in the master actor. Its Driver
// keeps books only for unfinished jobs; the tracker, which the master
// feeds every event, is the one record of each job's lifecycle.
type program struct {
	cfg      Config
	pl       core.Platform
	drv      *sim.Driver
	tracker  *Tracker
	slaveID  []int
	masterID int
	draining bool
	// now is the master clock's latest reading, the Driver's time
	// source: dispatch stamps the sent event with the very instant
	// MarkSent stamped the record (a wall clock moves between reads).
	now float64
	// exited is closed when the master actor returns, however it
	// returns, so a thief waiting on a reply never outlives it.
	exited chan struct{}

	// Lock-free progress counters behind Runtime.Load(): placement
	// policies poll them per job, so they must not contend with the
	// master actor.
	admitted   atomic.Int64
	dispatched atomic.Int64
	completed  atomic.Int64
	retracted  atomic.Int64
}

func newProgram(cfg Config) *program {
	return &program{
		cfg:     cfg,
		pl:      cfg.Platform.Clone(),
		tracker: NewTracker(),
		slaveID: make([]int, cfg.Platform.M()),
		exited:  make(chan struct{}),
	}
}

// record advances the progress counters, applies the event to the
// tracker and then feeds the observer, which may read the tracker. spec
// carries a submission's scales.
func (p *program) record(ev Event, spec JobSpec) {
	switch ev.Kind {
	case EvSubmitted:
		p.admitted.Add(1)
	case EvSent:
		p.dispatched.Add(1)
	case EvCompleted:
		p.completed.Add(1)
	case EvRetracted:
		p.retracted.Add(1)
	}
	p.tracker.record(ev, spec)
	if p.cfg.Observer != nil {
		p.cfg.Observer(ev)
	}
}

// events lists the lifecycle a schedule's records hold, job by job in ID
// order: each job's submission, then — if it was dispatched — its send,
// arrival, start and completion (the inverse of JobInfo.Record). A
// retracted job gives only its submission.
func events(s core.Schedule) []Event {
	out := make([]Event, 0, 5*len(s.Records))
	for _, r := range s.Records {
		id := int(r.Task)
		out = append(out, Event{T: r.Release, Kind: EvSubmitted, Task: id, Slave: -1})
		if r.Slave < 0 {
			continue
		}
		out = append(out,
			Event{T: r.SendStart, Kind: EvSent, Task: id, Slave: r.Slave},
			Event{T: r.Arrive, Kind: EvArrived, Task: id, Slave: r.Slave},
			Event{T: r.Start, Kind: EvStarted, Task: id, Slave: r.Slave},
			Event{T: r.Complete, Kind: EvCompleted, Task: id, Slave: r.Slave})
	}
	return out
}

// runMaster is the master actor: the scheduling policy's event loop.
// Structure mirrors the discrete-event engine's step(): drain everything
// deliverable at the current instant, then — if the port is free and work
// is pending — consult the scheduler exactly once, then block until the
// next event. The port is "busy" exactly while this actor sleeps inside
// Send, which is the one-port model.
func (p *program) runMaster(n Node) {
	defer close(p.exited)
	p.drv = p.drvInit(n)
	p.cfg.Scheduler.Reset(p.pl.Clone())
	view := p.drv.View()
	for {
		now := n.Now()
		if !p.drainMail(n, now) {
			return
		}
		if p.draining && p.drv.PendingCount() == 0 && p.drv.Done()+p.drv.Retracted() == p.drv.Admitted() {
			for _, id := range p.slaveID {
				n.Post(id, Msg{Kind: msgQuit})
			}
			return
		}
		if p.drv.PendingCount() == 0 {
			m, ok := n.Recv()
			if !ok || !p.handle(m) {
				return
			}
			continue
		}
		act := p.cfg.Scheduler.Decide(view)
		switch act.Kind {
		case sim.ActSend:
			p.dispatch(n, act.Task, act.Slave)
		case sim.ActWait:
			if act.Until <= now {
				panic(fmt.Sprintf("live: scheduler %s waits until %v which is not after now %v",
					p.cfg.Scheduler.Name(), act.Until, now))
			}
			if m, ok := n.RecvDeadline(act.Until); ok && !p.handle(m) {
				return
			}
		case sim.ActIdle:
			m, ok := n.Recv()
			if !ok || !p.handle(m) {
				return
			}
		default:
			panic(fmt.Sprintf("live: unknown action kind %d", act.Kind))
		}
	}
}

// drvInit builds the Driver against the running node's clock. It must
// happen inside the master actor: Runtime.New runs before the substrate
// has a clock reference for virtual worlds.
func (p *program) drvInit(n Node) *sim.Driver {
	if p.drv == nil {
		p.drv = sim.NewRetiringDriver(p.pl, func() float64 {
			p.now = n.Now()
			return p.now
		})
	}
	return p.drv
}

// drainMail processes every message already deliverable at now. It
// reports false when the master must unwind (abort).
func (p *program) drainMail(n Node, now float64) bool {
	for {
		m, ok := n.RecvDeadline(now)
		if !ok {
			return true
		}
		if !p.handle(m) {
			return false
		}
	}
}

// handle applies one message to the master state. It reports false when
// the master must unwind (abort).
func (p *program) handle(m Msg) bool {
	switch m.Kind {
	case msgSubmit:
		id := p.drv.Admit(core.Task{
			Release:   m.At,
			CommScale: m.Job.CommScale,
			CompScale: m.Job.CompScale,
		})
		if int(id) != m.Job.ID {
			panic(fmt.Sprintf("live: job submitted as %d admitted as %d (submission order violated)", m.Job.ID, id))
		}
		p.record(Event{T: m.At, Kind: EvSubmitted, Task: int(id), Slave: -1}, m.Job)
	case msgAck:
		p.drv.MarkCompleted(core.TaskID(m.Task), m.Slave, m.Start, m.Complete)
		p.record(Event{T: m.Start, Kind: EvStarted, Task: m.Task, Slave: m.Slave}, JobSpec{})
		p.record(Event{T: m.Complete, Kind: EvCompleted, Task: m.Task, Slave: m.Slave}, JobSpec{})
	case msgSteal:
		// Retract up to Count pending jobs for migration. The reply is
		// sent from inside the master actor, so by the time the thief
		// holds the jobs they are out of this master's pending queue and
		// can never be dispatched here — no double-dispatch window.
		tasks := p.drv.RetractNewest(m.Count)
		jobs := make([]StolenJob, len(tasks))
		for i, t := range tasks {
			jobs[i] = StolenJob{
				Local: int(t.ID),
				Spec:  JobSpec{CommScale: t.CommScale, CompScale: t.CompScale},
			}
			p.record(Event{T: m.At, Kind: EvRetracted, Task: int(t.ID), Slave: -1}, JobSpec{})
		}
		m.StealReply <- jobs
	case msgDrain:
		p.draining = true
	case msgAbort:
		return false
	default:
		panic(fmt.Sprintf("live: master received unexpected message kind %d", m.Kind))
	}
	return true
}

// dispatch ships one pending task: the Send blocks this actor for the
// actual transfer duration (port occupancy), after which the master has
// observed its own send complete.
func (p *program) dispatch(n Node, task core.TaskID, j int) {
	if !p.drv.MarkSent(p.cfg.Scheduler.Name(), task, j) {
		// This master never marks a slave dead, so a refused send is a bug.
		panic(fmt.Sprintf("live: scheduler %s sent task %d to dead slave %d", p.cfg.Scheduler.Name(), task, j))
	}
	t := p.drv.Task(task)
	// p.now is the reading MarkSent stamped SendStart with.
	p.record(Event{T: p.now, Kind: EvSent, Task: int(task), Slave: j}, JobSpec{})
	arrive := n.Send(p.slaveID[j], Msg{
		Kind:  msgTask,
		Task:  int(task),
		Slave: j,
		Dur:   p.pl.P[j] * t.EffComp(),
	}, p.pl.C[j]*t.EffComm())
	p.drv.MarkArrived(task, j, arrive)
	p.record(Event{T: arrive, Kind: EvArrived, Task: int(task), Slave: j}, JobSpec{})
}

// runSlave is the worker actor for slave j: receive a task, charge its
// computation by sleeping on the clock, notify the master.
func (p *program) runSlave(j int, n Node) {
	for {
		m, ok := n.Recv()
		if !ok {
			return
		}
		switch m.Kind {
		case msgQuit, msgAbort:
			return
		case msgTask:
			start := n.Now()
			n.Sleep(m.Dur)
			n.Post(p.masterID, Msg{
				Kind:     msgAck,
				Task:     m.Task,
				Slave:    j,
				Start:    start,
				Complete: n.Now(),
			})
		default:
			panic(fmt.Sprintf("live: slave %d received unexpected message kind %d", j, m.Kind))
		}
	}
}
