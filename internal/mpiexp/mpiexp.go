// Package mpiexp reproduces the paper's Section-4 experimental setup on
// the emulated message-passing cluster: a master rank drives one of the
// on-line schedulers; slave ranks receive matrices, compute determinants
// and acknowledge completions. The same sim.Scheduler implementations run
// here and in the discrete-event engine, and a cross-validation test
// requires both substrates to produce identical schedules.
//
// The paper's calibration protocol is reproduced too: probe one matrix
// per slave to estimate its link and compute costs, then choose
// repetition counts nc_j and np_j that shape the physical cluster into
// the desired heterogeneous platform (Section 4.2).
package mpiexp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Message tags.
const (
	tagTask = iota
	tagAck
	tagQuit
)

// taskMsg is the master→slave payload: which task, how much virtual
// computation it costs, and optionally a real matrix to factor.
type taskMsg struct {
	task    int
	compDur float64
	reps    int
	matrix  *linalg.Matrix
}

// ackMsg is the slave→master completion notification.
type ackMsg struct {
	task     int
	slave    int
	start    float64
	complete float64
	checksum float64
}

// Config describes one emulated experiment.
type Config struct {
	// Platform gives the target per-task costs (seconds) of each slave.
	Platform core.Platform
	// Tasks is the workload (releases and perturbation scales).
	Tasks []core.Task
	// Scheduler is the master's policy — any sim.Scheduler.
	Scheduler sim.Scheduler
	// MatrixSize is the side length of the task matrices. It only sets
	// the nominal message size; virtual costs come from Platform.
	MatrixSize int
	// ComputePayload makes slaves really factor matrices (checksummed);
	// virtual time is unaffected. Keep small for large workloads.
	ComputePayload bool
	// Seed drives matrix generation when ComputePayload is set.
	Seed int64
}

// Result is the outcome of an emulated run.
type Result struct {
	Schedule core.Schedule
	Checksum float64 // sum of computed determinants (0 unless ComputePayload)
}

// Run executes the experiment in virtual time and returns the schedule
// observed by the master, validated against the one-port model.
func Run(cfg Config) (Result, error) {
	if cfg.MatrixSize <= 0 {
		cfg.MatrixSize = 30
	}
	inst := core.NewInstance(cfg.Platform, cfg.Tasks)
	pl := inst.Platform
	m := pl.M()
	n := len(inst.Tasks)
	if n == 0 {
		return Result{Schedule: core.Schedule{Instance: inst}}, nil
	}

	world := mpi.NewWorld(m + 1)
	bytes := linalg.Bytes(cfg.MatrixSize)
	for j := 0; j < m; j++ {
		// Per-byte pricing makes the transfer of a nominal matrix cost
		// exactly c_j, and a perturbed one c_j × CommScale.
		world.SetLink(0, j+1, mpi.LinkCost{ByteTime: pl.C[j] / bytes})
		// Completion notifications are control messages: negligible size,
		// and the master's receive side is free under the bidirectional
		// one-port model, so the return link is free.
		world.SetLink(j+1, 0, mpi.LinkCost{})
	}

	ms := &master{
		cfg:   cfg,
		pl:    pl,
		tasks: inst.Tasks,
	}
	ms.drv = sim.NewDriver(pl, func() float64 { return ms.r.Now() })
	world.Rank(0, "master", ms.run)
	for j := 0; j < m; j++ {
		j := j
		world.Rank(j+1, fmt.Sprintf("slave-%d", j+1), func(r *mpi.Rank) {
			slaveLoop(r, j, cfg.ComputePayload)
		})
	}
	if err := world.Run(); err != nil {
		return Result{}, fmt.Errorf("mpiexp: %w", err)
	}
	s := ms.drv.Schedule()
	if err := core.ValidateSchedule(s); err != nil {
		return Result{}, fmt.Errorf("mpiexp: emulation produced an infeasible schedule: %w", err)
	}
	return Result{Schedule: s, Checksum: ms.checksum}, nil
}

// master is the rank-0 program: the scheduling policy's event loop. All
// of its scheduler-facing bookkeeping lives in a sim.Driver — the same
// master-side state the live runtime (internal/live) uses — so the two
// substrates cannot drift apart.
type master struct {
	cfg      Config
	pl       core.Platform
	tasks    []core.Task
	drv      *sim.Driver
	released int
	checksum float64
	r        *mpi.Rank
}

func (ms *master) run(r *mpi.Rank) {
	ms.r = r
	ms.cfg.Scheduler.Reset(ms.pl.Clone())
	view := ms.drv.View()
	n := len(ms.tasks)
	for ms.drv.Done() < n {
		now := r.Now()
		ms.admitReleases(now)
		ms.drainAcks(now)
		if ms.drv.Done() >= n {
			break // the drain just consumed the final completion
		}
		if ms.drv.PendingCount() == 0 {
			ms.blockUntil(ms.nextReleaseAfter(now))
			continue
		}
		act := ms.cfg.Scheduler.Decide(view)
		switch act.Kind {
		case sim.ActSend:
			ms.dispatch(act.Task, act.Slave)
		case sim.ActWait:
			if act.Until <= now {
				panic(fmt.Sprintf("mpiexp: scheduler %s waits until %v which is not after now %v",
					ms.cfg.Scheduler.Name(), act.Until, now))
			}
			ms.blockUntil(math.Min(act.Until, ms.nextReleaseAfter(now)))
		case sim.ActIdle:
			ms.blockUntil(ms.nextReleaseAfter(now))
		default:
			panic(fmt.Sprintf("mpiexp: unknown action kind %d", act.Kind))
		}
	}
	for j := 0; j < ms.pl.M(); j++ {
		r.Send(j+1, tagQuit, 0, nil)
	}
}

// admitReleases moves tasks released by now into the pending queue.
func (ms *master) admitReleases(now float64) {
	for ms.released < len(ms.tasks) && ms.tasks[ms.released].Release <= now {
		ms.drv.Admit(ms.tasks[ms.released])
		ms.released++
	}
}

// drainAcks processes every completion notification already delivered.
func (ms *master) drainAcks(now float64) {
	for {
		msg, ok := ms.r.RecvDeadline(now)
		if !ok {
			return
		}
		ms.handleAck(msg)
	}
}

func (ms *master) handleAck(msg mpi.Message) {
	ack := msg.Payload.(ackMsg)
	ms.drv.MarkCompleted(core.TaskID(ack.task), ack.slave, ack.start, ack.complete)
	ms.checksum += ack.checksum
}

// blockUntil waits for a completion notification or the deadline.
func (ms *master) blockUntil(deadline float64) {
	if msg, ok := ms.r.RecvDeadline(deadline); ok {
		ms.handleAck(msg)
	}
}

// nextReleaseAfter returns the earliest pending release strictly after
// now, or +Inf.
func (ms *master) nextReleaseAfter(now float64) float64 {
	if ms.released < len(ms.tasks) {
		return ms.tasks[ms.released].Release
	}
	return math.Inf(1)
}

// dispatch ships a pending task: the Send call blocks the master for the
// actual (perturbed) transfer time, which is exactly the one-port
// occupancy.
func (ms *master) dispatch(task core.TaskID, j int) {
	idx := int(task)
	if !ms.drv.MarkSent(ms.cfg.Scheduler.Name(), task, j) {
		// The emulated platform is static: a refused send is a bug.
		panic(fmt.Sprintf("mpiexp: scheduler %s sent task %d to dead slave %d", ms.cfg.Scheduler.Name(), task, j))
	}
	msg := taskMsg{
		task:    idx,
		compDur: ms.pl.P[j] * ms.tasks[idx].EffComp(),
		reps:    1,
	}
	if ms.cfg.ComputePayload {
		mat := checksumMatrix(ms.cfg.Seed, idx, ms.cfg.MatrixSize)
		msg.matrix = &mat
	}
	size := linalg.Bytes(ms.cfg.MatrixSize) * ms.tasks[idx].EffComm()
	ms.r.Send(j+1, tagTask, size, msg)
	ms.drv.MarkArrived(task, j, ms.r.Now())
}

// slaveLoop is the slave program: receive, compute, acknowledge.
func slaveLoop(r *mpi.Rank, j int, payload bool) {
	for {
		msg := r.Recv()
		if msg.Tag == tagQuit {
			return
		}
		tm := msg.Payload.(taskMsg)
		start := r.Now()
		sum := 0.0
		if payload && tm.matrix != nil {
			for rep := 0; rep < tm.reps; rep++ {
				sum += tm.matrix.Det()
			}
		}
		r.Compute(tm.compDur)
		r.Send(0, tagAck, 0, ackMsg{
			task:     tm.task,
			slave:    j,
			start:    start,
			complete: r.Now(),
			checksum: sum,
		})
	}
}

// checksumMatrix generates the task's matrix deterministically from the
// experiment seed and task index.
func checksumMatrix(seed int64, task, n int) linalg.Matrix {
	rng := newSplitMix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(task+1))
	m := linalg.NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = rng.float()*2 - 1
	}
	return m
}

// splitMix is a tiny deterministic generator so payload matrices do not
// depend on math/rand stream state.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix) float() float64 {
	return float64(s.next()>>11) / (1 << 53)
}
