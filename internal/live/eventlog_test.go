package live

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// runCapped executes a 12-task bag under the virtual clock with the
// given event-log cap and returns the result plus the runtime.
func runCapped(t *testing.T, cap int) (Result, *Runtime) {
	t.Helper()
	rt, err := New(Config{
		Platform:    core.NewPlatform([]float64{1, 1}, []float64{2, 2}),
		Scheduler:   sched.New("LS"),
		World:       NewVirtual(),
		EventLogCap: cap,
		Sources: []func(*Source){func(src *Source) {
			for i := 0; i < 12; i++ {
				src.Submit(JobSpec{})
			}
			src.Drain()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	return rt.Result(), rt
}

// TestEventLogUnboundedByDefault pins the zero-value behavior every
// conformance suite depends on: no cap, no drops, full history.
func TestEventLogUnboundedByDefault(t *testing.T) {
	res, rt := runCapped(t, 0)
	// 12 jobs × 5 lifecycle events each.
	if len(res.Events) != 60 {
		t.Fatalf("events = %d, want 60", len(res.Events))
	}
	if rt.EventsDropped() != 0 {
		t.Fatalf("dropped = %d, want 0", rt.EventsDropped())
	}
}

// TestEventLogBoundedRing pins the satellite fix: a capped log retains
// exactly the newest cap events, in order, and counts the overwritten.
func TestEventLogBoundedRing(t *testing.T) {
	full, _ := runCapped(t, 0)
	res, rt := runCapped(t, 16)
	if len(res.Events) != 16 {
		t.Fatalf("events = %d, want 16", len(res.Events))
	}
	if got, want := rt.EventsDropped(), int64(60-16); got != want {
		t.Fatalf("dropped = %d, want %d", got, want)
	}
	// The retained suffix is the tail of the full deterministic stream.
	tail := full.Events[len(full.Events)-16:]
	for i := range tail {
		if res.Events[i] != tail[i] {
			t.Fatalf("ring event %d = %+v, want %+v", i, res.Events[i], tail[i])
		}
	}
	// The ring does not disturb the schedule or counters.
	if len(res.Schedule.Records) != 12 {
		t.Fatalf("records = %d, want 12", len(res.Schedule.Records))
	}
}

// TestEventLogCapLargerThanStream: a cap the run never fills behaves
// exactly like the unbounded log.
func TestEventLogCapLargerThanStream(t *testing.T) {
	res, rt := runCapped(t, 1000)
	if len(res.Events) != 60 || rt.EventsDropped() != 0 {
		t.Fatalf("events = %d dropped = %d, want 60/0", len(res.Events), rt.EventsDropped())
	}
}

// TestObserveReturnsJob pins the tracker's hand-off: every event kind
// returns the job as it stands after the event, a completed job's
// Record() is the record its five events assemble, and Stats derives the
// latencies of exactly the done jobs from the one job table.
func TestObserveReturnsJob(t *testing.T) {
	tr := NewTracker()
	steps := []struct {
		ev   Event
		want JobInfo
	}{
		{Event{T: 1, Kind: EvSubmitted, Task: 0, Slave: -1},
			JobInfo{ID: 0, State: StateQueued, Slave: -1, Submitted: 1}},
		{Event{T: 2, Kind: EvSent, Task: 0, Slave: 1},
			JobInfo{ID: 0, State: StateSent, Slave: 1, Submitted: 1, SendStart: 2}},
		{Event{T: 3, Kind: EvArrived, Task: 0, Slave: 1},
			JobInfo{ID: 0, State: StateSent, Slave: 1, Submitted: 1, SendStart: 2, Arrive: 3}},
		{Event{T: 3.5, Kind: EvStarted, Task: 0, Slave: 1},
			JobInfo{ID: 0, State: StateSent, Slave: 1, Submitted: 1, SendStart: 2, Arrive: 3, Start: 3.5}},
		{Event{T: 7, Kind: EvCompleted, Task: 0, Slave: 1},
			JobInfo{ID: 0, State: StateDone, Slave: 1, Submitted: 1, SendStart: 2, Arrive: 3, Start: 3.5, Complete: 7}},
		// A second job that never completes: queued, then stolen.
		{Event{T: 4, Kind: EvSubmitted, Task: 1, Slave: -1},
			JobInfo{ID: 1, State: StateQueued, Slave: -1, Submitted: 4}},
		{Event{T: 5, Kind: EvRetracted, Task: 1, Slave: -1},
			JobInfo{ID: 1, State: StateStolen, Slave: -1, Submitted: 4, StolenAt: 5}},
	}
	var done JobInfo
	for _, st := range steps {
		got := tr.Observe(st.ev)
		if got != st.want {
			t.Fatalf("Observe(%+v) = %+v, want %+v", st.ev, got, st.want)
		}
		if stored, ok := tr.Job(st.ev.Task); !ok || stored != got {
			t.Fatalf("after %+v the table holds %+v, Observe returned %+v", st.ev, stored, got)
		}
		if got.State == StateDone {
			done = got
		}
	}
	want := core.Record{Task: 0, Slave: 1, Release: 1, SendStart: 2, Arrive: 3, Start: 3.5, Complete: 7}
	if rec := done.Record(); rec != want {
		t.Fatalf("Record() = %+v, want %+v", rec, want)
	}
	snap := tr.Stats()
	if len(snap.Latencies) != 1 || snap.Latencies[0] != 6 {
		t.Fatalf("latencies = %v, want [6] (done jobs only)", snap.Latencies)
	}
	if len(snap.Records) != 1 || snap.Records[0] != want {
		t.Fatalf("records = %+v, want [%+v]", snap.Records, want)
	}
}

// TestTrackerStolenAt pins the retraction timestamp on the source-side
// lifecycle.
func TestTrackerStolenAt(t *testing.T) {
	tr := NewTracker()
	tr.Observe(Event{T: 1, Kind: EvSubmitted, Task: 0, Slave: -1})
	tr.Observe(Event{T: 5, Kind: EvRetracted, Task: 0, Slave: -1})
	j, ok := tr.Job(0)
	if !ok || j.State != StateStolen || j.StolenAt != 5 {
		t.Fatalf("job = %+v", j)
	}
}

// TestTrackerAcrossPages drives the tracker over page boundaries: a first
// event for an ID pages ahead of the population leaves the IDs it skipped
// as unknown placeholders that Job reports absent, events arriving out of
// ID order land on their own jobs, and Stats lists the done jobs — not
// the one still queued — in ID order whichever pages they sit in.
func TestTrackerAcrossPages(t *testing.T) {
	tr := NewTracker()
	complete := func(id int, at float64) {
		tr.Observe(Event{T: at, Kind: EvSubmitted, Task: id, Slave: -1})
		tr.Observe(Event{T: at + 1, Kind: EvSent, Task: id, Slave: id % 2})
		tr.Observe(Event{T: at + 4, Kind: EvCompleted, Task: id, Slave: id % 2})
	}
	far := 2*trackerPage + 7
	got := tr.Observe(Event{T: 1, Kind: EvSubmitted, Task: far, Slave: -1})
	if want := (JobInfo{ID: far, State: StateQueued, Slave: -1, Submitted: 1}); got != want {
		t.Fatalf("first event %d IDs ahead: %+v, want %+v", far, got, want)
	}
	for _, id := range []int{-1, 0, trackerPage - 1, trackerPage, far - 1, far + 1, 3 * trackerPage, 1 << 40} {
		if j, ok := tr.Job(id); ok {
			t.Fatalf("Job(%d) = %+v for an ID never seen", id, j)
		}
	}
	// Fill in out of ID order, on both sides of each boundary.
	ids := []int{trackerPage, 0, far + 1, 2 * trackerPage, trackerPage - 1, 2*trackerPage - 1, 5}
	for k, id := range ids {
		complete(id, float64(10*k))
	}
	if j, ok := tr.Job(trackerPage - 2); ok || tr.job(trackerPage-2).State != StateUnknown || tr.job(trackerPage-2).ID != trackerPage-2 {
		t.Fatalf("skipped ID: Job = %+v, %v; slot %+v", j, ok, *tr.job(trackerPage - 2))
	}
	snap := tr.Stats()
	if c := snap.Counts; c.Submitted != len(ids)+1 || c.Completed != len(ids) {
		t.Fatalf("counts %+v", c)
	}
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	for k, rec := range snap.Records {
		if int(rec.Task) != sorted[k] || rec.Slave != sorted[k]%2 || snap.Latencies[k] != 4 {
			t.Fatalf("Stats record %d: %+v with latency %v, want job %d (ID order)", k, rec, snap.Latencies[k], sorted[k])
		}
	}
	if len(snap.Records) != len(ids) || len(snap.Latencies) != len(ids) {
		t.Fatalf("%d records, %d latencies, want %d", len(snap.Records), len(snap.Latencies), len(ids))
	}
}
