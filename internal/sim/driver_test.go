package sim

// Direct unit coverage for the exported master-side Driver; the heavier
// contracts (decision-for-decision agreement with the engine) are pinned
// by the mpiexp cross-validation and the live conformance suite.

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

func driverAt(now *float64) *Driver {
	return NewDriver(core.NewPlatform([]float64{1, 2}, []float64{3, 5}), func() float64 { return *now })
}

func TestDriverLifecycle(t *testing.T) {
	now := 0.0
	d := driverAt(&now)
	if d.Admitted() != 0 || d.PendingCount() != 0 || d.Done() != 0 {
		t.Fatal("fresh driver not empty")
	}
	id := d.Admit(core.Task{Release: 0})
	if id != 0 || d.Admitted() != 1 || d.PendingCount() != 1 {
		t.Fatalf("admit: id=%d admitted=%d pending=%d", id, d.Admitted(), d.PendingCount())
	}
	v := d.View()
	if got, ok := v.FirstPending(); !ok || got != 0 {
		t.Fatalf("FirstPending %v %v", got, ok)
	}
	if v.PendingCount() != 1 || v.Outstanding(0) != 0 {
		t.Fatal("view counts wrong")
	}
	if _, ok := v.ObservedComm(0); ok {
		t.Fatal("observation before any send completed")
	}
	// Dispatch at t=0: ledger predicts arrival with the nominal cost.
	if !d.MarkSent("test", 0, 0) {
		t.Fatal("send to a live slave refused")
	}
	if d.PendingCount() != 0 || v.Outstanding(0) != 1 {
		t.Fatal("dispatch bookkeeping wrong")
	}
	if got := v.ReadyEstimate(0); got != 4 { // predicted arrive 1 + p 3
		t.Fatalf("ReadyEstimate %v", got)
	}
	// Actual arrival later than predicted: the observation feed and the
	// ledger both switch to the measurement.
	now = 1.5
	d.MarkArrived(0, 0, 1.5)
	if obs, ok := v.ObservedComm(0); !ok || obs != 1.5 {
		t.Fatalf("ObservedComm %v %v", obs, ok)
	}
	if got := v.ReadyEstimate(0); got != 4.5 {
		t.Fatalf("ReadyEstimate after arrival %v", got)
	}
	now = 5.0
	d.MarkCompleted(0, 0, 1.5, 5.0)
	if d.Done() != 1 || v.Outstanding(0) != 0 {
		t.Fatal("completion bookkeeping wrong")
	}
	if obs, ok := v.ObservedComp(0); !ok || obs != 3.5 {
		t.Fatalf("ObservedComp %v %v", obs, ok)
	}
	s := d.Schedule()
	if len(s.Records) != 1 {
		t.Fatalf("%d records", len(s.Records))
	}
	want := core.Record{Task: 0, Slave: 0, Release: 0, SendStart: 0, Arrive: 1.5, Start: 1.5, Complete: 5}
	if s.Records[0] != want {
		t.Fatalf("record %+v, want %+v", s.Records[0], want)
	}
	if err := core.ValidateSchedule(core.Schedule{
		Instance: core.Instance{Platform: core.NewPlatform([]float64{1.5}, []float64{3.5}), Tasks: s.Instance.Tasks},
		Records:  s.Records,
	}); err != nil {
		t.Fatalf("records do not validate against their measured costs: %v", err)
	}
}

func TestDriverAlive(t *testing.T) {
	now := 0.0
	d := driverAt(&now)
	for j := 0; j < 2; j++ {
		if !d.View().Alive(j) {
			t.Fatalf("slave %d dead on a static platform", j)
		}
	}
}

func TestDriverRetractNewest(t *testing.T) {
	now := 0.0
	d := driverAt(&now)
	for i := 0; i < 5; i++ {
		d.Admit(core.Task{ID: core.TaskID(i), Release: 0})
	}

	got := d.RetractNewest(2)
	if len(got) != 2 || got[0].ID != 4 || got[1].ID != 3 {
		t.Fatalf("RetractNewest(2) = %+v, want tasks 4 then 3", got)
	}
	if d.Retracted() != 2 || d.PendingCount() != 3 || d.Admitted() != 5 {
		t.Fatalf("counts after retract: retracted=%d pending=%d admitted=%d",
			d.Retracted(), d.PendingCount(), d.Admitted())
	}
	// The FIFO front is untouched: the oldest task still dispatches first.
	if id, ok := d.View().FirstPending(); !ok || id != 0 {
		t.Fatalf("FirstPending after retract = %v %v, want 0", id, ok)
	}

	// Over-ask empties the queue without inventing tasks.
	rest := d.RetractNewest(10)
	if len(rest) != 3 || rest[0].ID != 2 || rest[2].ID != 0 {
		t.Fatalf("over-ask returned %+v, want tasks 2,1,0", rest)
	}
	if d.Retracted() != 5 || d.PendingCount() != 0 {
		t.Fatalf("counts after over-ask: retracted=%d pending=%d", d.Retracted(), d.PendingCount())
	}

	// Empty queue and non-positive asks are nil no-ops.
	if d.RetractNewest(1) != nil || d.RetractNewest(0) != nil || d.RetractNewest(-3) != nil {
		t.Fatal("retraction from an empty queue (or n<=0) must return nil")
	}
	if d.Retracted() != 5 {
		t.Fatalf("no-op retractions changed the count to %d", d.Retracted())
	}
}

func TestDriverProtocolViolationsPanic(t *testing.T) {
	cases := []struct {
		name string
		run  func(d *Driver)
	}{
		{"unknown task", func(d *Driver) { d.MarkSent("t", 9, 0) }},
		{"unknown slave", func(d *Driver) { d.Admit(core.Task{}); d.MarkSent("t", 0, 7) }},
		{"re-send", func(d *Driver) { d.Admit(core.Task{}); d.MarkSent("t", 0, 0); d.MarkSent("t", 0, 0) }},
	}
	for _, c := range cases {
		func() {
			now := 0.0
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted", c.name)
				}
			}()
			c.run(driverAt(&now))
		}()
	}
}

func TestDriverRefusedSend(t *testing.T) {
	now := 1.0
	d := driverAt(&now)
	d.Admit(core.Task{Release: 1})
	d.Fail(0)
	before := d.Schedule().Records[0]
	if d.MarkSent("test", 0, 0) {
		t.Fatal("send to a failed slave accepted")
	}
	v := d.View()
	if id, ok := v.FirstPending(); !ok || id != 0 || v.PendingCount() != 1 {
		t.Fatalf("refused send left the pending queue at %v %v (len %d)", id, ok, v.PendingCount())
	}
	if v.Outstanding(0) != 0 || v.ReadyEstimate(0) != 1 {
		t.Fatalf("refused send reached the ledger: outstanding %d, ready %v", v.Outstanding(0), v.ReadyEstimate(0))
	}
	if got := d.Schedule().Records[0]; got != before || got.Slave != -1 {
		t.Fatalf("refused send changed the record: %+v, was %+v", got, before)
	}
	now = 2
	d.Recover(0)
	if !d.MarkSent("test", 0, 0) {
		t.Fatal("send refused after recovery")
	}
	if got := d.Schedule().Records[0]; got.Slave != 0 || got.SendStart != 2 || v.Outstanding(0) != 1 {
		t.Fatalf("send after recovery booked as %+v, outstanding %d", got, v.Outstanding(0))
	}
}

func TestDriverAddSlave(t *testing.T) {
	now := 4.0
	d := driverAt(&now)
	v := d.View() // taken before the join: the view follows the Driver
	if j := d.AddSlave(0.5, 7); j != 2 || v.M() != 3 {
		t.Fatalf("AddSlave index %d, M %d", j, v.M())
	}
	if v.Comm(2) != 0.5 || v.Comp(2) != 7 || !v.Alive(2) || v.Outstanding(2) != 0 {
		t.Fatal("joined slave not advertised as given, alive and idle")
	}
	if obs, ok := v.ObservedComm(2); ok || obs != 0 {
		t.Fatalf("ObservedComm on a joined slave = %v %v, want nothing seen", obs, ok)
	}
	if obs, ok := v.ObservedComp(2); ok || obs != 0 {
		t.Fatalf("ObservedComp on a joined slave = %v %v, want nothing seen", obs, ok)
	}
	if got := v.PredictFinish(2); got != 4+0.5+7 {
		t.Fatalf("PredictFinish on a joined slave = %v, want idle since the join", got)
	}
	d.Admit(core.Task{Release: 4})
	if !d.MarkSent("test", 0, 2) {
		t.Fatal("send to a joined slave refused")
	}
}

func TestDriverFailMarksUnfinishedAttempts(t *testing.T) {
	now := 0.0
	d := driverAt(&now)
	for i := 0; i < 6; i++ {
		d.Admit(core.Task{})
	}
	// Slave 0 holds 0 (finished), 2 (arrived), 4 (in flight); slave 1
	// holds 1; tasks 3 and 5 are still pending.
	for _, send := range []struct{ task, slave int }{{0, 0}, {1, 1}, {2, 0}, {4, 0}} {
		d.MarkSent("test", core.TaskID(send.task), send.slave)
		if send.task != 4 {
			d.MarkArrived(core.TaskID(send.task), send.slave, 1)
		}
	}
	d.MarkCompleted(0, 0, 1, 4)
	if got := d.Fail(0); !slices.Equal(got, []core.TaskID{2, 4}) {
		t.Fatalf("lost %v, want [2 4] in task-ID order", got)
	}
	for id, r := range d.Schedule().Records {
		if r.Lost != (id == 2 || id == 4) {
			t.Fatalf("record %d Lost=%v", id, r.Lost)
		}
	}
	if d.View().Outstanding(0) != 0 || d.View().Outstanding(1) != 1 {
		t.Fatal("failure must clear exactly the dead slave's ledger")
	}
	// A second failure destroys only what was sent since the recovery.
	d.Recover(0)
	d.MarkSent("test", 5, 0)
	if got := d.Leave(0); !slices.Equal(got, []core.TaskID{5}) {
		t.Fatalf("lost %v on the second failure, want [5]", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Recover on a departed slave did not panic")
		}
	}()
	d.Recover(0)
}

// TestDriverDeepBacklogScale is the scale guard on the master's books: a
// Driver whose one slave stands 50,000 units behind serves 200,000
// nominal jobs — dispatch, arrival, completion, and a ReadyEstimate after
// each, as a list scheduler would ask — inside a bound that a per-job
// cost growing with the backlog (re-folding it, or splicing its head
// out) misses by more than an order of magnitude: the re-folding, splicing
// ledger took 27 s on two shared cores, this one under 0.1 s.
func TestDriverDeepBacklogScale(t *testing.T) {
	const backlog, jobs = 50_000, 200_000
	const c, p = 0.001, 1.0
	now := 0.0
	d := NewDriver(core.NewPlatform([]float64{c}, []float64{p}), func() float64 { return now })
	v := d.View()
	send := func() {
		id := d.Admit(core.Task{Release: now})
		d.MarkSent("test", id, 0)
		now += c
		d.MarkArrived(id, 0, now)
	}
	for i := 0; i < backlog; i++ {
		send()
	}
	start := time.Now()
	free := 0.0
	for k := 0; k < jobs; k++ {
		// The FIFO slave's own arithmetic: start when both free and arrived.
		begin := max(free, d.records[k].Arrive)
		free = begin + p
		now = max(now, free)
		d.MarkCompleted(core.TaskID(k), 0, begin, free)
		got := v.ReadyEstimate(0)
		send()
		if want := got + p; v.ReadyEstimate(0) != want || v.Outstanding(0) != backlog {
			t.Fatalf("job %d: ReadyEstimate %v with %d outstanding, want %v with %d",
				k, v.ReadyEstimate(0), v.Outstanding(0), want, backlog)
		}
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("%d jobs behind a %d-unit backlog took %v: the ledger's per-job cost grows with the backlog again", jobs, backlog, took)
	}
}
