package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
)

// aliveGreedy is greedyFinish restricted to live slaves; it idles when
// every slave is down (the minimal failure-aware scheduler).
type aliveGreedy struct{}

func (aliveGreedy) Name() string        { return "alive-greedy" }
func (aliveGreedy) Reset(core.Platform) {}
func (aliveGreedy) Decide(v View) Action {
	task, ok := v.FirstPending()
	if !ok {
		return Idle()
	}
	best, bestFinish := -1, math.Inf(1)
	for j := 0; j < v.M(); j++ {
		if !v.Alive(j) {
			continue
		}
		if f := v.PredictFinish(j); f < bestFinish {
			best, bestFinish = j, f
		}
	}
	if best < 0 {
		return Idle()
	}
	return Send(task, best)
}

func TestFailSlaveDestroysOutstandingWork(t *testing.T) {
	pl := core.NewPlatform([]float64{1, 1}, []float64{5, 5})
	e := New(pl, &fifoTo{slave: 0}, core.Bag(3))
	e.AdvanceTo(4) // all three sent to slave 0: one computing, two queued
	lost := e.FailSlave(0)
	if len(lost) != 3 {
		t.Fatalf("lost %v, want all three tasks", lost)
	}
	if e.SlaveAlive(0) {
		t.Fatal("slave 0 still alive after FailSlave")
	}
	s, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		if !s.Records[id].Lost {
			t.Fatalf("record %d not marked Lost: %+v", id, s.Records[id])
		}
		if s.Records[id].Complete != 0 {
			t.Fatalf("lost record %d has completion %v", id, s.Records[id].Complete)
		}
	}
}

func TestFailSlaveAbortsInFlightSendAndFreesPort(t *testing.T) {
	pl := core.NewPlatform([]float64{4, 1}, []float64{1, 1})
	f := &fifoTo{slave: 0}
	e := New(pl, f, core.Bag(2))
	e.AdvanceTo(1) // task 0 in flight to slave 0 until t=4
	lost := e.FailSlave(0)
	if len(lost) != 1 || lost[0] != 0 {
		t.Fatalf("lost %v, want the in-flight task 0", lost)
	}
	f.slave = 1
	e.Kick() // port must be free NOW, not at t=4
	s, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Records[1].SendStart; got != 1 {
		t.Fatalf("task 1 sent at %v, want 1 (port freed by the failure)", got)
	}
}

func TestDeadSlaveDispatchReturnsTypedError(t *testing.T) {
	pl := core.NewPlatform([]float64{1, 1}, []float64{3, 3})
	e := New(pl, &fifoTo{slave: 0}, core.Bag(2))
	e.FailSlave(0)
	_, err := e.Run()
	var dead *DeadSlaveError
	if !errors.As(err, &dead) {
		t.Fatalf("Run error %v, want a *DeadSlaveError", err)
	}
	if dead.Slave != 0 || dead.Scheduler != "fifo-fixed" || dead.Departed {
		t.Fatalf("error fields %+v", dead)
	}
	if e.Err() == nil {
		t.Fatal("Err() not set after halt")
	}
}

func TestDepartedSlaveErrorAndNoRecovery(t *testing.T) {
	pl := core.NewPlatform([]float64{1, 1}, []float64{3, 3})
	e := New(pl, &fifoTo{slave: 0}, core.Bag(1))
	e.LeaveSlave(0)
	defer func() {
		if recover() == nil {
			t.Fatal("RecoverSlave on a departed slave did not panic")
		}
	}()
	e.RecoverSlave(0)
}

func TestRecoverSlaveResumesService(t *testing.T) {
	pl := core.NewPlatform([]float64{1}, []float64{1})
	e := New(pl, aliveGreedy{}, core.Bag(2))
	e.AdvanceTo(0.5) // task 0 in flight
	lost := e.FailSlave(0)
	if len(lost) != 1 {
		t.Fatalf("lost %v", lost)
	}
	// Re-release the destroyed attempt, scenario-style.
	clone := e.InjectTask(core.Task{Release: e.Now(), CommScale: 1, CompScale: 1})
	e.AdvanceTo(3) // the scheduler idles: everything is down
	if e.Completed(1) || e.Completed(clone) {
		t.Fatal("work completed while the only slave was down")
	}
	e.RecoverSlave(0)
	e.Kick()
	s, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Records[1].SendStart; got != 3 {
		t.Fatalf("task 1 sent at %v, want 3 (right at recovery)", got)
	}
	if got := s.Makespan(); got != 6 {
		t.Fatalf("makespan %v, want 6 (two tasks serialized after recovery)", got)
	}
}

func TestAddSlaveVisibleToScheduler(t *testing.T) {
	pl := core.NewPlatform([]float64{1}, []float64{10})
	e := New(pl, aliveGreedy{}, core.Bag(2))
	e.AdvanceTo(0.5) // task 0 headed to the only slave
	j := e.AddSlave(1, 2)
	if j != 1 || e.Platform().M() != 2 {
		t.Fatalf("AddSlave index %d, m %d", j, e.Platform().M())
	}
	s, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Records[1].Slave; got != 1 {
		t.Fatalf("task 1 ran on slave %d, want the joined slave 1", got)
	}
}

func TestDriftChangesActualNotNominal(t *testing.T) {
	pl := core.NewPlatform([]float64{1}, []float64{10})
	e := New(pl, aliveGreedy{}, core.Bag(1))
	e.DriftCosts(0, 1, 2) // actually 5× faster than advertised
	s, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Makespan(); got != 3 {
		t.Fatalf("makespan %v, want 3 (1 comm + 2 actual comp)", got)
	}
	if got := e.drv.View().Comp(0); got != 10 {
		t.Fatalf("nominal comp %v changed by drift, want 10", got)
	}
	// The observation feed reports the actual durations.
	if obs, ok := e.drv.View().ObservedComp(0); !ok || obs != 2 {
		t.Fatalf("observed comp %v/%v, want 2", obs, ok)
	}
	if obs, ok := e.drv.View().ObservedComm(0); !ok || obs != 1 {
		t.Fatalf("observed comm %v/%v, want 1", obs, ok)
	}
}
