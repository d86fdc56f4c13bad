package live

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestEventLogUnboundedByDefault pins that a run's Result carries its
// full lifecycle: 12 jobs, five events each.
func TestEventLogUnboundedByDefault(t *testing.T) {
	res, err := Run(Config{
		Platform:  core.NewPlatform([]float64{1, 1}, []float64{2, 2}),
		Scheduler: sched.New("LS"),
		World:     NewVirtual(),
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
	if len(res.Events) != 60 {
		t.Fatalf("events = %d, want 60", len(res.Events))
	}
}

// requireDerivedEvents checks Result.Events against the stream the
// Observer saw: the same multiset of (Kind, Task, T, Slave) once the
// retractions — which a schedule record does not hold — are set aside,
// laid out job by job in ID order, five events per completed job and
// the submission alone for a retracted one.
func requireDerivedEvents(t *testing.T, label string, observed []Event, res Result) {
	t.Helper()
	streamed := slices.DeleteFunc(slices.Clone(observed), func(ev Event) bool { return ev.Kind == EvRetracted })
	derived := slices.Clone(res.Events)
	order := func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.Task, b.Task), cmp.Compare(a.Kind, b.Kind),
			cmp.Compare(a.T, b.T), cmp.Compare(a.Slave, b.Slave))
	}
	slices.SortFunc(streamed, order)
	slices.SortFunc(derived, order)
	if !slices.Equal(streamed, derived) {
		t.Fatalf("%s: observed stream and Result.Events differ:\n observed %+v\n derived  %+v", label, streamed, derived)
	}
	evs := res.Events
	for _, r := range res.Schedule.Records {
		want := []EventKind{EvSubmitted}
		if r.Slave >= 0 {
			want = append(want, EvSent, EvArrived, EvStarted, EvCompleted)
		}
		if len(evs) < len(want) {
			t.Fatalf("%s: Result.Events ends before job %d", label, r.Task)
		}
		for k, kind := range want {
			if evs[k].Kind != kind || evs[k].Task != int(r.Task) {
				t.Fatalf("%s: job %d event %d is %+v, want %v", label, r.Task, k, evs[k], kind)
			}
		}
		evs = evs[len(want):]
	}
	if len(evs) != 0 {
		t.Fatalf("%s: %d events past the last job", label, len(evs))
	}
}

// TestDerivedEventsMatchObserver pins Result.Events, read off the
// drained schedule, against the live Observer stream on both clocks:
// every conformance platform, two policies. On a wall clock the master
// must stamp each job's sent event and its record's SendStart from one
// clock reading, or the two disagree on every dispatched job.
func TestDerivedEventsMatchObserver(t *testing.T) {
	tasks := core.ReleasesAt(0, 0, 1, 1, 2, 3, 5, 8, 8)
	worlds := map[string]func() World{
		"virtual": func() World { return NewVirtual() },
		"real":    func() World { return NewRealTime(4000) },
	}
	for wName, world := range worlds {
		for plName, pl := range conformancePlatforms() {
			for _, policy := range []string{"LS", "SLJF"} {
				label := fmt.Sprintf("%s/%s/%s", wName, plName, policy)
				var observed []Event
				res, err := Run(Config{
					Platform:  pl,
					Scheduler: sched.New(policy),
					World:     world(),
					Sources:   []func(*Source){Replay(tasks)},
					Observer:  func(ev Event) { observed = append(observed, ev) },
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got, want := len(res.Events), 5*len(tasks); got != want {
					t.Fatalf("%s: %d events, want %d", label, got, want)
				}
				requireDerivedEvents(t, label, observed, res)
			}
		}
	}

	// A real-clock steal: the retracted jobs keep only their submission.
	var observed []Event
	rt, err := New(Config{
		Platform:  core.NewPlatform([]float64{5, 5}, []float64{5, 5}),
		Scheduler: sched.New("LS"),
		World:     NewRealTime(1000),
		Observer:  func(ev Event) { observed = append(observed, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	submitN(rt, 10, JobSpec{})
	stolen := rt.StealPending(3)
	if len(stolen) == 0 {
		t.Fatal("the steal retracted nothing from a 10-job backlog")
	}
	rt.Drain()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	res := rt.Result()
	if got, want := len(res.Events), 5*(10-len(stolen))+len(stolen); got != want {
		t.Fatalf("steal run: %d events, want %d", got, want)
	}
	requireDerivedEvents(t, "real/steal", observed, res)
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
	if len(snap.Records) != 1 || snap.Records[0] != want || snap.Records[0].Flow() != 6 {
		t.Fatalf("records = %+v, want [%+v] with flow 6 (done jobs only)", snap.Records, want)
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
	if j, ok := tr.Job(trackerPage - 2); ok || *tr.entry(trackerPage - 2) != (jobEntry{}) {
		t.Fatalf("skipped ID: Job = %+v, %v; slot %+v", j, ok, *tr.entry(trackerPage - 2))
	}
	snap := tr.Stats()
	if c := snap.Counts; c.Submitted != len(ids)+1 || c.Completed != len(ids) {
		t.Fatalf("counts %+v", c)
	}
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	for k, rec := range snap.Records {
		if int(rec.Task) != sorted[k] || rec.Slave != sorted[k]%2 || rec.Flow() != 4 {
			t.Fatalf("Stats record %d: %+v with flow %v, want job %d (ID order)", k, rec, rec.Flow(), sorted[k])
		}
	}
	if len(snap.Records) != len(ids) {
		t.Fatalf("%d records, want %d", len(snap.Records), len(ids))
	}
}
