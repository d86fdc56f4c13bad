package live

// StealPending tests: the runtime-level half of cross-shard work
// stealing. The cluster layer owns migration atomicity; what must hold
// HERE is the retraction contract — stolen jobs come off the back of
// the pending queue inside the master actor, the accounting identity
// becomes Done + Retracted == Admitted, and the virtual substrate
// refuses to steal at all (determinism: vclock runs admit no external
// events, which is what makes steal-rate-0 conformance structural).

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
)

// stealTestRuntime builds a started real-time runtime whose per-task
// costs map to ~5ms of wall time: long enough that a backlog submitted
// just before a steal is still mostly pending when the steal lands (the
// one-port master is a few milliseconds into its first transfer), short
// enough that the leftover queue drains in tens of milliseconds.
func stealTestRuntime(t *testing.T, tracker *Tracker) *Runtime {
	t.Helper()
	cfg := Config{
		Platform:  core.NewPlatform([]float64{5, 5}, []float64{5, 5}),
		Scheduler: sched.New("LS"),
		World:     NewRealTime(1000),
	}
	if tracker != nil {
		cfg.Observer = func(ev Event) { tracker.Observe(ev) }
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	return rt
}

// submitN submits n copies of spec from outside the world.
func submitN(rt *Runtime, n int, spec JobSpec) {
	for i := 0; i < n; i++ {
		rt.Submit(spec)
	}
}

func TestStealPendingTakesNewestFirst(t *testing.T) {
	tracker := NewTracker()
	rt := stealTestRuntime(t, tracker)
	const jobs = 10
	submitN(rt, jobs, JobSpec{CommScale: 2, CompScale: 3})

	stolen := rt.StealPending(3)
	if len(stolen) != 3 {
		t.Fatalf("stole %d jobs, want 3", len(stolen))
	}
	// Newest first: the highest local IDs, in descending order, and never
	// job 0 (the master grabs the port for the oldest pending task).
	for i, j := range stolen {
		if j.Local == 0 {
			t.Fatalf("stole job 0, which the master should be dispatching")
		}
		if i > 0 && j.Local >= stolen[i-1].Local {
			t.Fatalf("steal order not newest-first: %v then %v", stolen[i-1].Local, j.Local)
		}
		if j.Spec.CommScale != 2 || j.Spec.CompScale != 3 {
			t.Fatalf("stolen job %d lost its spec: %+v", j.Local, j.Spec)
		}
	}

	load := rt.Load()
	if load.Retracted != 3 {
		t.Fatalf("load reports %d retracted, want 3", load.Retracted)
	}
	if got, want := load.QueueDepth(), jobs-3-load.Dispatched; got != want {
		t.Fatalf("queue depth %d, want %d", got, want)
	}
	if c := tracker.CountsSnapshot(); c.Stolen != 3 {
		t.Fatalf("tracker counts %+v, want 3 stolen", c)
	}
	for _, j := range stolen {
		info, ok := tracker.Job(j.Local)
		if !ok || info.State != StateStolen {
			t.Fatalf("stolen job %d tracked as %q", j.Local, info.State)
		}
	}
}

func TestStealPendingOverAskDrainsQueueAndRunCompletes(t *testing.T) {
	rt := stealTestRuntime(t, nil)
	submitN(rt, 5, JobSpec{})
	// Ask for far more than is pending: the steal empties the queue (minus
	// whatever the master already claimed for the port) without blocking.
	stolen := rt.StealPending(100)
	if len(stolen) == 0 || len(stolen) > 5 {
		t.Fatalf("stole %d jobs", len(stolen))
	}
	// The run must still drain cleanly: the completion condition is
	// Done + Retracted == Admitted, not Done == Admitted.
	rt.Drain()
	if err := rt.Wait(); err != nil {
		t.Fatalf("drain after steal: %v", err)
	}
	load := rt.Load()
	if load.Completed+load.Retracted != load.Submitted {
		t.Fatalf("accounting identity broken after drain: %+v", load)
	}
}

func TestStealPendingRefusals(t *testing.T) {
	// n <= 0 is a no-op.
	rt := stealTestRuntime(t, nil)
	if got := rt.StealPending(0); got != nil {
		t.Fatalf("StealPending(0) = %v, want nil", got)
	}
	if got := rt.StealPending(-1); got != nil {
		t.Fatalf("StealPending(-1) = %v, want nil", got)
	}
	// Draining runtimes refuse: a steal racing the drain must not strand
	// jobs outside both masters.
	submitN(rt, 3, JobSpec{})
	rt.Drain()
	if got := rt.StealPending(1); got != nil {
		t.Fatalf("StealPending during drain = %v, want nil", got)
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	// Not-started runtimes refuse (no master actor is serving yet).
	idle, err := New(Config{
		Platform:  core.NewPlatform([]float64{1}, []float64{1}),
		Scheduler: sched.New("LS"),
		World:     NewRealTime(1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := idle.StealPending(1); got != nil {
		t.Fatalf("StealPending before Start = %v, want nil", got)
	}
}

func TestStealPendingVirtualWorldIsStructurallyImpossible(t *testing.T) {
	// Virtual worlds admit no external events — Post panics — so
	// StealPending must decline without touching the world. This is what
	// makes the steal-rate-0 conformance contract structural rather than
	// behavioral: under vclock there is no code path that can steal.
	rt, err := New(Config{
		Platform:  core.NewPlatform([]float64{1, 1}, []float64{2, 2}),
		Scheduler: sched.New("LS"),
		World:     NewVirtual(),
		Sources: []func(*Source){func(src *Source) {
			for i := 0; i < 4; i++ {
				src.Submit(JobSpec{})
			}
			src.Drain()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	if got := rt.StealPending(2); got != nil {
		t.Fatalf("StealPending on virtual world = %v, want nil", got)
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if load := rt.Load(); load.Retracted != 0 || load.Completed != 4 {
		t.Fatalf("virtual run perturbed by steal attempt: %+v", load)
	}
}

// explodingScheduler panics on its first Decide, failing the master
// actor; its world then aborts every other actor.
type explodingScheduler struct{ sim.Scheduler }

func (explodingScheduler) Decide(sim.View) sim.Action { panic("scheduler exploded") }

// TestStealPendingAfterMasterFailure: a failed world aborts the master,
// which exits without reading its mailbox, so a thief must not wait for
// a reply nobody will send.
func TestStealPendingAfterMasterFailure(t *testing.T) {
	rt, err := New(Config{
		Platform:  core.NewPlatform([]float64{1, 1}, []float64{1, 1}),
		Scheduler: explodingScheduler{sched.New("LS")},
		World:     NewRealTime(1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	rt.Submit(JobSpec{})
	if err := rt.Wait(); err == nil || !strings.Contains(err.Error(), `"master" panicked`) {
		t.Fatalf("Wait error %v, want the master's panic", err)
	}
	done := make(chan []StolenJob, 1)
	go func() { done <- rt.StealPending(1) }()
	select {
	case got := <-done:
		if got != nil {
			t.Fatalf("StealPending on a failed runtime = %v, want nil", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("StealPending still blocked 5 s after the master failed")
	}
}
