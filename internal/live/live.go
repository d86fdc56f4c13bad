// Package live is the concurrent master–slave runtime: it executes the
// unmodified sim.Scheduler implementations against goroutine-backed
// slaves instead of the discrete-event simulator. The master is a single
// actor that serializes all scheduling state (the paper's one-port
// communication model falls out of the master blocking for each
// transfer); slaves are workers that "execute" a task by sleeping its
// communication-plus-computation cost on a pluggable clock; jobs stream
// in at any moment from concurrent producers.
//
// Two substrates implement the same World contract:
//
//   - NewRealTime(speedup) runs on the wall clock (optionally scaled), with
//     one goroutine per actor. This is what the schedd daemon serves from.
//   - NewVirtual() runs on the deterministic virtual-time kernel of
//     internal/vclock. Under it, a live run reproduces the discrete-event
//     engine's dispatch decisions and schedule bit for bit — the
//     conformance suite in this package pins that property for every
//     paper heuristic and platform class, so the simulator and the
//     runtime can never drift apart.
//
// The master keeps its scheduler-facing bookkeeping in a sim.Driver, the
// same master-side books the discrete-event engine keeps, but retiring:
// it holds books only for jobs not yet finished. Each runtime's Tracker,
// fed by the master, holds one entry per job and is the one record of
// its lifecycle: Result reads a core.Schedule off it once drained, so
// trace.Analyze, the validity checks and the paper's objectives all
// apply to live runs. The paper's Section-4 cluster experiment
// (internal/mpiexp) is a configuration of this runtime on the virtual
// clock, not a loop of its own.
package live

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sim"
)

// JobSpec describes one submitted job. The zero value is a nominal task
// (scales of 1, matching core.Task semantics).
type JobSpec struct {
	// ID is assigned by the runtime at submission; caller-set values are
	// ignored.
	ID int
	// CommScale and CompScale perturb the job's actual costs (Figure-2
	// style); zero means 1.
	CommScale float64
	CompScale float64
}

// Config describes one live runtime.
type Config struct {
	// Platform gives the per-task costs of each slave. Required.
	Platform core.Platform
	// Scheduler is the serving policy — any sim.Scheduler. Required.
	Scheduler sim.Scheduler
	// World selects the substrate; nil means real time at speedup 1.
	World World
	// Sources are in-world job producers, spawned after the slaves and
	// before the master. A virtual world can only receive jobs from
	// Sources (external Submit would be nondeterministic); a real world
	// may freely mix Sources and Runtime.Submit.
	Sources []func(src *Source)
	// Observer, if set, receives every runtime event from inside the
	// master actor, in order, after the runtime's Tracker has applied it.
	// It must be fast and must not call back into the Runtime; reading
	// the Tracker is allowed.
	Observer func(Event)
	// EventLogCap is ignored: the runtime keeps no event log of its own.
	//
	// Deprecated: ignored. bench/ still sets it; the benchmark's second
	// edition (ROADMAP.md) drops that use and then deletes the field.
	EventLogCap int
}

// Result describes a drained run: every admitted job completed here or
// was retracted by a steal.
type Result struct {
	// Schedule is the executed schedule: one record per admitted job, on
	// the instance the run actually served. Under the virtual clock it is
	// bit-identical to the engine's; under a wall clock the recorded
	// times are measurements.
	Schedule core.Schedule
	// Events is the lifecycle Schedule records, job by job in ID order:
	// submitted, then sent, arrived, started and completed for each
	// dispatched job. A retracted job gives only its submission; the
	// Observer stream carries the retraction itself.
	Events []Event
}

// Runtime is a running live master–slave system.
type Runtime struct {
	cfg   Config
	world World
	prog  *program

	mu sync.Mutex
	// nextID is the submission-order ID allocator. It only advances under
	// mu (submitters must not interleave IDs mid-batch), but it is an
	// atomic so Load can read it without the lock — the one field that
	// used to force the progress snapshot through the runtime mutex.
	nextID   atomic.Int64
	draining bool
	started  bool
	waited   bool
	waitErr  error
}

// New assembles a runtime: m slave actors (node IDs 0..m-1), then the
// configured sources, then the master (spawned last so that, under the
// virtual clock, every same-instant completion and submission is
// delivered before the master decides — the engine's drain-then-consult
// ordering).
func New(cfg Config) (*Runtime, error) {
	if err := cfg.Platform.Validate(); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("live: config needs a scheduler")
	}
	if cfg.World == nil {
		cfg.World = NewRealTime(1)
	}
	rt := &Runtime{cfg: cfg, world: cfg.World}
	m := cfg.Platform.M()
	prog := newProgram(cfg)
	rt.prog = prog
	for j := 0; j < m; j++ {
		j := j
		prog.slaveID[j] = rt.world.Spawn(fmt.Sprintf("slave-%d", j), func(n Node) {
			prog.runSlave(j, n)
		})
	}
	for i, src := range cfg.Sources {
		src := src
		rt.world.Spawn(fmt.Sprintf("source-%d", i), func(n Node) {
			src(&Source{rt: rt, n: n})
		})
	}
	prog.masterID = rt.world.Spawn("master", prog.runMaster)
	return rt, nil
}

// Start launches the actors. On a virtual world execution is cooperative
// and actually happens inside Wait.
func (rt *Runtime) Start() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.started {
		return
	}
	rt.started = true
	rt.world.Start()
}

// Submit injects one job from outside the world and returns its ID. Jobs
// are admitted in submission order. Only real worlds accept external
// submissions; virtual worlds panic (use a Source).
func (rt *Runtime) Submit(spec JobSpec) int {
	return rt.submitSpecs(rt.world.Post, []JobSpec{spec})
}

// submitSpecs is the one admission critical section behind every
// submission entry point, external or in-world (post is the caller's way
// into the master's mailbox): the ID counter is shared, and the lock is
// held across every post so concurrent submitters cannot interleave IDs
// mid-batch or deliver jobs to the master out of ID order. The caller
// keeps ownership of specs; per-spec IDs are stamped on posted copies
// only. Submitting
// after any source or external caller has drained panics (surfaced as
// the world error for in-world callers): the master may already have
// exited, and a silently dropped job would corrupt the run's accounting.
func (rt *Runtime) submitSpecs(post func(dst int, m Msg), specs []JobSpec) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.draining {
		panic("live: Submit after Drain")
	}
	base := int(rt.nextID.Load())
	for i := range specs {
		sp := specs[i]
		sp.ID = int(rt.nextID.Add(1)) - 1
		post(rt.prog.masterID, Msg{Kind: msgSubmit, Task: sp.ID, Job: sp})
	}
	return base
}

// Load is a point-in-time progress snapshot of a runtime, cheap enough
// to poll per placement decision: Submitted counts jobs accepted by
// Submit or a source, Admitted those the master has enqueued
// (it may trail Submitted by in-flight mail), Dispatched those sent to
// a slave, Completed those finished.
type Load struct {
	Submitted  int `json:"submitted"`
	Admitted   int `json:"admitted"`
	Dispatched int `json:"dispatched"`
	Completed  int `json:"completed"`
	// Retracted counts jobs extracted by StealPending: accepted here,
	// migrated to (and eventually completed by) another runtime. They no
	// longer belong to this runtime's backlog or population.
	Retracted int `json:"retracted,omitempty"`
}

// QueueDepth is the number of accepted jobs not yet dispatched — the
// master-side backlog (including submissions still in the mailbox).
func (l Load) QueueDepth() int { return l.Submitted - l.Retracted - l.Dispatched }

// Outstanding is the number of accepted jobs not yet completed — the
// shard's total in-system population, the least-loaded placement signal.
func (l Load) Outstanding() int { return l.Submitted - l.Retracted - l.Completed }

// Load returns the current progress snapshot. Every counter is an
// atomic, so Load takes no lock at all and is safe to call from any
// goroutine at any moment — including per placement decision on a hot
// ingest path. Reading them in reverse causal order — completed,
// dispatched, admitted, submitted — makes every snapshot internally
// monotone (Completed ≤ Dispatched ≤ Admitted ≤ Submitted): each
// counter only grows, and a job reaches a later stage only after the
// earlier ones, so a stage read later can never be smaller than one
// read earlier.
func (rt *Runtime) Load() Load {
	// Retracted is read first: it only grows, and a stale (smaller) value
	// overstates QueueDepth/Outstanding — placement and steal policies
	// then err toward seeing more backlog here, never less.
	retracted := int(rt.prog.retracted.Load())
	completed := int(rt.prog.completed.Load())
	dispatched := int(rt.prog.dispatched.Load())
	admitted := int(rt.prog.admitted.Load())
	submitted := int(rt.nextID.Load())
	return Load{
		Submitted:  submitted,
		Admitted:   admitted,
		Dispatched: dispatched,
		Completed:  completed,
		Retracted:  retracted,
	}
}

// Pending returns the current queue depth (accepted, undispatched jobs)
// — what GET /healthz depth reporting and least-loaded placement read.
func (rt *Runtime) Pending() int { return rt.Load().QueueDepth() }

// StolenJob is one pending job extracted from a runtime by StealPending:
// the runtime-local ID it was admitted under (now permanently retracted
// there) plus the spec to re-admit it elsewhere.
type StolenJob struct {
	Local int
	Spec  JobSpec
}

// StealPending extracts up to n accepted-but-undispatched jobs from the
// BACK of the master's pending queue — the youngest backlog, the classic
// work-stealing-deque discipline (the owner dispatches the FIFO front,
// the thief takes the tail). It blocks for the master's reply: when it
// returns, the jobs are out of this runtime for good (the master
// retracted them inside its own actor before replying), so re-admitting
// them on another runtime can never double-dispatch.
//
// Returns nil when n <= 0, the runtime is draining or not yet started,
// its master has exited (a failed world aborts it), or the world is
// virtual: deterministic worlds never steal — an external message would
// perturb the cooperative schedule, and the virtual substrate refuses
// outside posts. This is the structural half of the steal-rate-0
// conformance contract: a virtual-clock run is bit-identical to the
// engine no matter what a rebalancer asks for.
func (rt *Runtime) StealPending(n int) []StolenJob {
	if n <= 0 {
		return nil
	}
	if _, virtual := rt.world.(*VirtualWorld); virtual {
		return nil
	}
	reply := make(chan []StolenJob, 1)
	rt.mu.Lock()
	if rt.draining || !rt.started {
		rt.mu.Unlock()
		return nil
	}
	// Posted under the runtime lock, like Submit: Drain also takes this
	// lock before posting msgDrain, so a steal that passed the draining
	// check is in the master's mailbox ahead of any drain message and is
	// answered before the master drains out. Only a master that unwinds
	// (a failed world) leaves it unanswered.
	rt.world.Post(rt.prog.masterID, Msg{Kind: msgSteal, Count: n, StealReply: reply})
	rt.mu.Unlock()
	select {
	case jobs := <-reply:
		return jobs
	case <-rt.prog.exited:
		// The reply, if the master sent one, was sent before it exited.
		select {
		case jobs := <-reply:
			return jobs
		default:
			return nil
		}
	}
}

// Drain tells the master no more jobs are coming: it finishes everything
// outstanding, shuts the slaves down and exits. External counterpart of
// Source.Drain.
func (rt *Runtime) Drain() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.draining {
		return
	}
	rt.draining = true
	rt.world.Post(rt.prog.masterID, Msg{Kind: msgDrain})
}

// Wait blocks until the run completes (drained, or failed). It returns
// the substrate error, if any.
func (rt *Runtime) Wait() error {
	rt.Start()
	rt.mu.Lock()
	if rt.waited {
		defer rt.mu.Unlock()
		return rt.waitErr
	}
	rt.mu.Unlock()
	err := rt.world.Wait()
	rt.mu.Lock()
	rt.waited = true
	rt.waitErr = err
	rt.mu.Unlock()
	return err
}

// Result assembles the schedule and its lifecycle events from the
// runtime's tracker, in job-ID order. Call it only after Wait has
// returned: mid-run, records of unfinished jobs are incomplete.
func (rt *Runtime) Result() Result {
	if rt.prog.drv == nil {
		return Result{}
	}
	s := rt.prog.tracker.schedule(rt.prog.pl.Clone())
	return Result{Schedule: s, Events: events(s)}
}

// Tracker returns the runtime's job-state store: one entry per job this
// runtime accepted, fed by its master, safe to query from any goroutine.
func (rt *Runtime) Tracker() *Tracker { return rt.prog.tracker }

// Run is the one-call convenience wrapper: build, start, wait, collect.
// The workload must come from cfg.Sources.
func Run(cfg Config) (Result, error) {
	rt, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	rt.Start()
	if err := rt.Wait(); err != nil {
		return Result{}, err
	}
	if rt.prog.drv == nil || rt.prog.drv.Done()+rt.prog.drv.Retracted() != rt.prog.drv.Admitted() {
		return Result{}, fmt.Errorf("live: run ended before every admitted job completed")
	}
	return rt.Result(), nil
}

// Replay returns the source that streams a recorded workload: sleep until
// each task's release, submit it with its perturbation scales, and drain
// after the last. Tasks are taken in release order (ties keep their given
// order, like core.NewInstance), so on a virtual world job IDs, release
// stamps and the schedule are the engine's bit for bit.
func Replay(tasks []core.Task) func(*Source) {
	tasks = core.NewInstance(core.Platform{}, tasks).Tasks
	return func(src *Source) {
		for _, task := range tasks {
			if task.Release > src.Now() {
				src.SleepUntil(task.Release)
			}
			src.Submit(JobSpec{CommScale: task.CommScale, CompScale: task.CompScale})
		}
		src.Drain()
	}
}

// Source is an in-world job producer's handle: a clock plus the
// submission surface. Sources run as actors between the slaves and the
// master, so their submissions are deterministic under the virtual clock.
type Source struct {
	rt *Runtime
	n  Node
}

// Now returns the current time.
func (s *Source) Now() float64 { return s.n.Now() }

// Sleep blocks the source for d time units.
func (s *Source) Sleep(d float64) { s.n.Sleep(d) }

// SleepUntil blocks the source until the clock reaches t exactly (no
// accumulation error: the deadline is absolute). Times at or before now
// return immediately.
func (s *Source) SleepUntil(t float64) {
	// Sources receive no mail except a real-world abort, so a
	// deadline-bounded receive is an absolute-deadline sleep.
	for {
		m, ok := s.n.RecvDeadline(t)
		if !ok {
			return
		}
		if m.Kind == msgAbort {
			return
		}
	}
}

// Submit submits one job at the current instant and returns its ID.
func (s *Source) Submit(spec JobSpec) int { return s.rt.submitSpecs(s.n.Post, []JobSpec{spec}) }

// SubmitSpecs submits a batch of heterogeneous jobs at the current
// instant under one runtime lock acquisition and returns the first
// assigned ID (the batch is [base, base+len(specs))). On a virtual
// world each post is a synchronous mailbox append — the whole batch is
// admitted without yielding, which is what makes an intake drain cheap:
// one kernel wake absorbs an arbitrarily large slab.
func (s *Source) SubmitSpecs(specs []JobSpec) int {
	return s.rt.submitSpecs(s.n.Post, specs)
}

// Await blocks a source that feeds its runtime from producers outside
// the world until it should act again. With window > 0 the source holds
// jobs it admits once fewer than window of its runtime's jobs are
// outstanding; with window 0 it holds nothing and waits for its
// producers' next signal on notify.
//
// A real world runs every actor on its own goroutine, so there the wait
// is a plain block on notify and held jobs are admitted at once: no
// model-clock poll, no admission window. A virtual world cannot see an
// outside event while it still has work — its clock moves only when its
// actors block on it — so there Await blocks on notify only while the
// runtime is idle and otherwise sleeps poll model seconds, and it waits
// out the window in sleeps that double from poll up to 1024·poll: a
// fixed cadence would pay O(window/poll) yields per refill, the dominant
// kernel cost at millions of jobs.
func (s *Source) Await(notify <-chan struct{}, window int, poll float64) {
	if _, virtual := s.rt.world.(*VirtualWorld); !virtual {
		if window == 0 {
			<-notify
		}
		return
	}
	if window == 0 {
		if s.rt.Load().Outstanding() == 0 {
			<-notify
			return
		}
		s.Sleep(poll)
		return
	}
	for wait := poll; s.rt.Load().Outstanding() >= window; {
		s.Sleep(wait)
		if wait < poll*1024 {
			wait *= 2
		}
	}
}

// Drain tells the master no more jobs are coming (from any source or
// external submitter).
func (s *Source) Drain() {
	s.rt.mu.Lock()
	s.rt.draining = true
	s.rt.mu.Unlock()
	s.n.Post(s.rt.prog.masterID, Msg{Kind: msgDrain})
}
