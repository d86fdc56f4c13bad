package obs

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

func rec(task, slave int, release, send, arrive, start, complete float64) core.Record {
	return core.Record{
		Task: core.TaskID(task), Slave: slave,
		Release: release, SendStart: send, Arrive: arrive,
		Start: start, Complete: complete,
	}
}

func TestFromRecord(t *testing.T) {
	sp := FromRecord(rec(3, 1, 0, 2, 5, 6, 10))
	if sp.Job != 3 || sp.Slave != 1 || sp.Start != 0 || sp.End != 10 {
		t.Fatalf("span = %+v", sp)
	}
	want := []Stage{
		{StageQueue, 0, 2},
		{StageTransfer, 2, 5},
		{StageSlaveWait, 5, 6},
		{StageService, 6, 10},
	}
	if !reflect.DeepEqual(sp.Stages, want) {
		t.Fatalf("stages = %+v, want %+v", sp.Stages, want)
	}
	// Stages tile the span exactly: contiguous, in order.
	for i, st := range sp.Stages {
		if st.Name != StageNames()[i] {
			t.Fatalf("stage %d named %q", i, st.Name)
		}
		if i > 0 && st.Start != sp.Stages[i-1].End {
			t.Fatalf("stage %d not contiguous: %+v", i, sp.Stages)
		}
	}
	if sp.Stages[0].Start != sp.Start || sp.Stages[3].End != sp.End {
		t.Fatalf("stages do not tile the span: %+v", sp)
	}
}

// TestFromRecordsDeterministic pins that the span stream is a pure
// function of the records: two derivations are deeply equal.
func TestFromRecordsDeterministic(t *testing.T) {
	recs := []core.Record{
		rec(0, 0, 0, 0, 1, 1, 4),
		rec(1, 2, 0, 1, 3, 3, 9),
		rec(2, 1, 2, 3, 5, 7, 8),
	}
	a, b := FromRecords(recs), FromRecords(recs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("span derivation is not deterministic")
	}
	if len(a) != 3 || a[2].Job != 2 {
		t.Fatalf("spans = %+v", a)
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown(nil)
	if b.Jobs != 0 || b.Queue.Mean != 0 {
		t.Fatalf("empty breakdown = %+v", b)
	}
	recs := []core.Record{
		rec(0, 0, 0, 2, 3, 3, 7), // queue 2, transfer 1, wait 0, service 4
		rec(1, 1, 0, 4, 6, 7, 9), // queue 4, transfer 2, wait 1, service 2
	}
	b = Breakdown(recs)
	// Parts are one sample: splitting it changes nothing.
	if split := Breakdown(recs[:1], nil, recs[1:]); split != b {
		t.Fatalf("split breakdown %+v, whole %+v", split, b)
	}
	if b.Jobs != 2 {
		t.Fatalf("jobs = %d", b.Jobs)
	}
	checks := []struct {
		name      string
		got       StageSummary
		mean, max float64
	}{
		{"queue", b.Queue, 3, 4},
		{"transfer", b.Transfer, 1.5, 2},
		{"slave-wait", b.SlaveWait, 0.5, 1},
		{"service", b.Service, 3, 4},
	}
	for _, c := range checks {
		if c.got.Mean != c.mean || c.got.Max != c.max {
			t.Fatalf("%s = %+v, want mean %v max %v", c.name, c.got, c.mean, c.max)
		}
	}
	scaled := b.Scale(2)
	if scaled.Queue.Mean != 1.5 || scaled.Service.Max != 2 || scaled.Jobs != 2 {
		t.Fatalf("scaled = %+v", scaled)
	}
}
