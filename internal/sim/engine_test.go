package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

// fifoTo always ships the oldest pending task to a fixed slave.
type fifoTo struct{ slave int }

func (f *fifoTo) Name() string        { return "fifo-fixed" }
func (f *fifoTo) Reset(core.Platform) {}
func (f *fifoTo) Decide(v View) Action {
	task, ok := v.FirstPending()
	if !ok {
		return Idle()
	}
	return Send(task, f.slave)
}

// greedyFinish ships the oldest pending task to the slave with the
// earliest predicted finish (a minimal list scheduler for engine tests).
type greedyFinish struct{}

func (greedyFinish) Name() string        { return "greedy-finish" }
func (greedyFinish) Reset(core.Platform) {}
func (greedyFinish) Decide(v View) Action {
	task, ok := v.FirstPending()
	if !ok {
		return Idle()
	}
	best, bestFinish := 0, math.Inf(1)
	for j := 0; j < v.M(); j++ {
		if f := v.PredictFinish(j); f < bestFinish {
			best, bestFinish = j, f
		}
	}
	return Send(task, best)
}

// waiter idles until a fixed time, then behaves like fifoTo.
type waiter struct {
	until float64
	inner fifoTo
}

func (w *waiter) Name() string        { return "waiter" }
func (w *waiter) Reset(core.Platform) {}
func (w *waiter) Decide(v View) Action {
	if v.Now() < w.until {
		return Wait(w.until)
	}
	return w.inner.Decide(v)
}

// sleeper never sends anything.
type sleeper struct{}

func (sleeper) Name() string        { return "sleeper" }
func (sleeper) Reset(core.Platform) {}
func (sleeper) Decide(View) Action  { return Idle() }

func theorem1Platform() core.Platform {
	return core.NewPlatform([]float64{1, 1}, []float64{3, 7})
}

func TestSingleTaskTimings(t *testing.T) {
	pl := core.NewPlatform([]float64{1}, []float64{3})
	s, err := Simulate(pl, &fifoTo{0}, core.ReleasesAt(0))
	if err != nil {
		t.Fatal(err)
	}
	r := s.Records[0]
	if r.SendStart != 0 || r.Arrive != 1 || r.Start != 1 || r.Complete != 4 {
		t.Fatalf("record = %+v", r)
	}
	if s.Makespan() != 4 {
		t.Fatalf("makespan = %v", s.Makespan())
	}
}

func TestPortSerialization(t *testing.T) {
	// Two tasks at t=0 to different-speed slaves; port must serialize.
	pl := theorem1Platform()
	s, err := Simulate(pl, greedyFinish{}, core.ReleasesAt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Greedy: task 0 → P1 (finish 4). Task 1: P1 predicts max(2,4)+3=7,
	// P2 predicts 2+7=9 → P1. Send starts at 1 (port).
	r0, r1 := s.Records[0], s.Records[1]
	if r0.Slave != 0 || r1.Slave != 0 {
		t.Fatalf("assignment = %d, %d", r0.Slave, r1.Slave)
	}
	if r1.SendStart != 1 {
		t.Fatalf("second send started at %v, want 1 (one-port)", r1.SendStart)
	}
	if r1.Start != 4 || r1.Complete != 7 {
		t.Fatalf("task 1 ran [%v,%v], want [4,7]", r1.Start, r1.Complete)
	}
}

func TestSlaveFIFOQueueing(t *testing.T) {
	// Three tasks forced to one slave: queue drains in arrival order.
	pl := core.NewPlatform([]float64{1, 1}, []float64{3, 7})
	s, err := Simulate(pl, &fifoTo{0}, core.ReleasesAt(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	wantStart := []float64{1, 4, 7}
	for i, r := range s.Records {
		if r.Start != wantStart[i] {
			t.Fatalf("task %d started at %v, want %v", i, r.Start, wantStart[i])
		}
	}
	if s.SumFlow() != 4+7+10 {
		t.Fatalf("sum-flow = %v", s.SumFlow())
	}
}

func TestReleaseRespected(t *testing.T) {
	pl := core.NewPlatform([]float64{1}, []float64{1})
	s, err := Simulate(pl, &fifoTo{0}, core.ReleasesAt(5))
	if err != nil {
		t.Fatal(err)
	}
	if s.Records[0].SendStart != 5 {
		t.Fatalf("send started at %v, want 5", s.Records[0].SendStart)
	}
}

func TestWaitAction(t *testing.T) {
	pl := core.NewPlatform([]float64{1}, []float64{1})
	s, err := Simulate(pl, &waiter{until: 3}, core.ReleasesAt(0))
	if err != nil {
		t.Fatal(err)
	}
	if s.Records[0].SendStart != 3 {
		t.Fatalf("send started at %v, want 3", s.Records[0].SendStart)
	}
	if core.WorkConserving(s) {
		t.Fatal("deliberate idling not detected")
	}
}

func TestIdleDeadlockReported(t *testing.T) {
	pl := core.NewPlatform([]float64{1}, []float64{1})
	_, err := New(pl, sleeper{}, core.ReleasesAt(0)).Run()
	if err == nil || !strings.Contains(err.Error(), "completed 0 of 1") {
		t.Fatalf("deadlock not reported: %v", err)
	}
}

func TestPerturbedDurations(t *testing.T) {
	pl := core.NewPlatform([]float64{2}, []float64{4})
	tasks := []core.Task{{Release: 0, CommScale: 1.5, CompScale: 0.5}}
	s, err := Simulate(pl, &fifoTo{0}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Records[0]
	if r.Arrive != 3 { // 2 * 1.5
		t.Fatalf("arrive = %v, want 3", r.Arrive)
	}
	if r.Complete != 5 { // 3 + 4*0.5
		t.Fatalf("complete = %v, want 5", r.Complete)
	}
}

func TestPredictionUsesNominalCosts(t *testing.T) {
	// A perturbed in-flight task must not leak its actual size into the
	// master's prediction until the send completes.
	pl := core.NewPlatform([]float64{1}, []float64{3})
	tasks := []core.Task{{Release: 0, CommScale: 2, CompScale: 1}}
	e := New(pl, &fifoTo{0}, tasks)
	e.AdvanceTo(0.5) // send started at 0, actual arrival at 2, nominal 1
	if got := e.drv.View().ReadyEstimate(0); got != 1+3 {
		t.Fatalf("mid-flight estimate = %v, want 4 (nominal)", got)
	}
	e.AdvanceTo(2.5) // send completed at 2: bookkeeping corrected
	if got := e.drv.View().ReadyEstimate(0); got != 2+3 {
		t.Fatalf("post-arrival estimate = %v, want 5 (actual arrival)", got)
	}
}

func TestAdvanceToAndStarted(t *testing.T) {
	pl := theorem1Platform()
	e := New(pl, greedyFinish{}, core.ReleasesAt(0))
	if _, _, ok := e.Started(0); ok {
		t.Fatal("send reported before simulation started")
	}
	e.AdvanceTo(0.5)
	slave, at, ok := e.Started(0)
	if !ok || slave != 0 || at != 0 {
		t.Fatalf("Started = (%d, %v, %v)", slave, at, ok)
	}
	if e.Completed(0) {
		t.Fatal("task complete too early")
	}
	e.AdvanceTo(4)
	if !e.Completed(0) {
		t.Fatal("task not complete at t=4")
	}
}

func TestInjectTask(t *testing.T) {
	pl := theorem1Platform()
	e := New(pl, greedyFinish{}, core.ReleasesAt(0))
	e.AdvanceTo(1)
	id := e.InjectTask(core.Task{Release: 1})
	if id != 1 {
		t.Fatalf("injected id = %d", id)
	}
	s, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ValidateSchedule(s); err != nil {
		t.Fatal(err)
	}
	if len(s.Records) != 2 {
		t.Fatalf("%d records", len(s.Records))
	}
	// Greedy: task 1 at time 1 → P1 predicts max(2,4)+3 = 7; P2 predicts
	// 2+7 = 9 → P1, completing at 7.
	if s.Records[1].Slave != 0 || s.Records[1].Complete != 7 {
		t.Fatalf("injected task record = %+v", s.Records[1])
	}
}

func TestInjectPastPanics(t *testing.T) {
	pl := theorem1Platform()
	e := New(pl, greedyFinish{}, core.ReleasesAt(0))
	e.AdvanceTo(2)
	defer func() {
		if recover() == nil {
			t.Fatal("past injection accepted")
		}
	}()
	e.InjectTask(core.Task{Release: 1})
}

func TestAdvanceBackwardsPanics(t *testing.T) {
	e := New(theorem1Platform(), greedyFinish{}, core.ReleasesAt(0))
	e.AdvanceTo(2)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards advance accepted")
		}
	}()
	e.AdvanceTo(1)
}

// badSender exercises engine guards.
type badSender struct{ act Action }

func (b *badSender) Name() string        { return "bad" }
func (b *badSender) Reset(core.Platform) {}
func (b *badSender) Decide(View) Action  { return b.act }

func TestEngineGuards(t *testing.T) {
	cases := []struct {
		name string
		act  Action
	}{
		{"unknown task", Send(99, 0)},
		{"unknown slave", Send(0, 9)},
		{"wait in past", Wait(0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("engine accepted invalid action")
				}
			}()
			e := New(theorem1Platform(), &badSender{tc.act}, core.ReleasesAt(0))
			_, _ = e.Run()
		})
	}
}

func TestResendPanics(t *testing.T) {
	// A scheduler that names an already-sent task: engine must reject.
	pl := core.NewPlatform([]float64{1}, []float64{10})
	bad := &badSender{Send(0, 0)}
	e := New(pl, bad, core.ReleasesAt(0, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("re-send accepted")
		}
	}()
	_, _ = e.Run()
}

func TestTheorem1OptimalScenario(t *testing.T) {
	// The proof of Theorem 1 case 2 states: first task on P2, two more on
	// P1 gives makespan max{c+p2, 2c+2p1, 3c+p1} = 8. Reconstruct it.
	pl := theorem1Platform()
	seq := &scripted{moves: []Action{Send(0, 1), Send(1, 0), Send(2, 0)}}
	s, err := Simulate(pl, seq, core.ReleasesAt(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Makespan(); got != 8 {
		t.Fatalf("makespan = %v, want 8 (paper's Theorem 1, case 2)", got)
	}
}

// scripted plays a fixed sequence of sends, one per pending consult.
type scripted struct {
	moves []Action
	next  int
}

func (s *scripted) Name() string        { return "scripted" }
func (s *scripted) Reset(core.Platform) { s.next = 0 }
func (s *scripted) Decide(v View) Action {
	if s.next >= len(s.moves) {
		return Idle()
	}
	act := s.moves[s.next]
	if _, ok := v.FirstPending(); !ok {
		return Idle()
	}
	// Only play the move once its task is actually pending.
	found := false
	for i := 0; i < v.PendingCount(); i++ {
		if v.PendingAt(i) == act.Task {
			found = true
			break
		}
	}
	if !found {
		return Idle()
	}
	s.next++
	return act
}

func TestViewAccessors(t *testing.T) {
	pl := theorem1Platform()
	e := New(pl, sleeper{}, core.ReleasesAt(0, 0, 5))
	e.AdvanceTo(1)
	v := e.drv.View()
	if v.M() != 2 || v.Comm(1) != 1 || v.Comp(1) != 7 {
		t.Fatal("platform accessors wrong")
	}
	if v.PendingCount() != 2 {
		t.Fatalf("pending = %d, want 2", v.PendingCount())
	}
	if v.PendingAt(1) != 1 {
		t.Fatalf("PendingAt(1) = %d", v.PendingAt(1))
	}
	if v.Release(2) != 5 {
		t.Fatalf("Release(2) = %v", v.Release(2))
	}
	if v.Outstanding(0) != 0 {
		t.Fatal("no task assigned yet")
	}
}

func TestDeterministicReplay(t *testing.T) {
	pl := core.Random(rand.New(rand.NewSource(11)), core.Heterogeneous, core.GenConfig{})
	tasks := core.Bag(50)
	a, err := Simulate(pl, greedyFinish{}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(pl, greedyFinish{}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatal("same scenario produced different schedules")
		}
	}
}

func TestRandomScenariosValid(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		class := core.Classes[rng.Intn(len(core.Classes))]
		pl := core.Random(rng, class, core.GenConfig{M: 1 + rng.Intn(5)})
		n := 1 + rng.Intn(60)
		tasks := make([]core.Task, n)
		for i := range tasks {
			tasks[i] = core.Task{Release: rng.Float64() * 20, CommScale: 1, CompScale: 1}
		}
		s, err := Simulate(pl, greedyFinish{}, tasks)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !core.WorkConserving(s) {
			t.Fatalf("trial %d: greedy scheduler idled", trial)
		}
	}
}

func BenchmarkEngine1000Tasks(b *testing.B) {
	pl := core.Random(rand.New(rand.NewSource(1)), core.Heterogeneous, core.GenConfig{})
	tasks := core.Bag(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(pl, greedyFinish{}, tasks); err != nil {
			b.Fatal(err)
		}
	}
}
