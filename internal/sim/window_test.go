package sim

// The retiring Driver's window: books only from the oldest unfinished
// task to the newest, with every View answer the full-books Driver's.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

// protocolFixture is one seeded stream of the master protocol.
type protocolFixture struct {
	seed  int64
	steps int
	limit int // unfinished tasks admitted at most
}

// protocolFixtures are the streams the window is pinned on. Their
// full-books schedules hash to protocolDigest.
var protocolFixtures = []protocolFixture{{1, 4000, 8}, {2, 4000, 64}, {3, 20000, 300}}

// protocolDigest is the SHA-256 of the full-books Driver's Schedule over
// protocolFixtures, taken before the Driver could retire anything.
const protocolDigest = "0fa4b858da1e4feacc651d1b3aa414d2ebdeeae802bfa520823eab6ec2b1cb82"

// driveProtocol feeds one fixture's stream to every Driver in ds at once
// (they share the clock *now): admissions with perturbed scales, sends
// of a pending task (usually the oldest) to a random slave with the
// arrival right behind, FIFO completions per slave, and the odd
// retraction of the newest backlog. After every step each Driver must
// answer every View query exactly as the first does. At the end the
// backlog is retracted and every task in flight completed.
func driveProtocol(t *testing.T, f protocolFixture, now *float64, ds ...*Driver) {
	t.Helper()
	rng := rand.New(rand.NewSource(f.seed))
	ref := ds[0]
	pl := ref.Platform()
	queues := make([][]core.TaskID, pl.M())
	unfinished := func() int { return ref.Admitted() - ref.Done() - ref.Retracted() }
	complete := func(j int) {
		task := queues[j][0]
		queues[j] = queues[j][1:]
		start := *now
		// The conversions keep protocolDigest architecture-independent:
		// without them gc fuses each product into the clock's add on arm64.
		*now += float64(pl.P[j] * (1 + rng.Float64()))
		for _, d := range ds {
			d.MarkCompleted(task, j, start, *now)
		}
	}
	for step := 0; step < f.steps; step++ {
		switch k := rng.Intn(10); {
		case k < 4 && unfinished() < f.limit:
			task := core.Task{Release: *now, CommScale: 1 + rng.Float64(), CompScale: 1 + rng.Float64()}
			for _, d := range ds {
				d.Admit(task)
			}
		case k < 7 && ref.PendingCount() > 0:
			i := 0
			if rng.Intn(4) == 0 {
				i = rng.Intn(ref.PendingCount())
			}
			task, j := ref.View().PendingAt(i), rng.Intn(pl.M())
			for _, d := range ds {
				d.MarkSent("fixture", task, j)
			}
			*now += float64(pl.C[j] * ref.Task(task).EffComm())
			for _, d := range ds {
				d.MarkArrived(task, j, *now)
			}
			queues[j] = append(queues[j], task)
		case k < 9:
			if j := rng.Intn(pl.M()); len(queues[j]) > 0 {
				complete(j)
			}
		default:
			n := rng.Intn(3)
			want := ref.RetractNewest(n)
			for _, d := range ds[1:] {
				if got := d.RetractNewest(n); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d: RetractNewest(%d) = %v, want %v", f.seed, step, n, got, want)
				}
			}
		}
		for _, d := range ds[1:] {
			if got, want := viewState(d), viewState(ref); got != want {
				t.Fatalf("seed %d step %d: view\n%s\nwant\n%s", f.seed, step, got, want)
			}
		}
	}
	for _, d := range ds {
		d.RetractNewest(d.PendingCount())
	}
	for j := range queues {
		for len(queues[j]) > 0 {
			complete(j)
		}
	}
}

// viewState spells out every answer the View gives, plus the counters.
func viewState(d *Driver) string {
	v := d.View()
	var b strings.Builder
	fmt.Fprintf(&b, "admitted %d done %d retracted %d pending", d.Admitted(), d.Done(), d.Retracted())
	for i := 0; i < v.PendingCount(); i++ {
		id := v.PendingAt(i)
		fmt.Fprintf(&b, " %d@%v:%+v", id, v.Release(id), d.Task(id))
	}
	for j := 0; j < v.M(); j++ {
		comm, okc := v.ObservedComm(j)
		comp, okp := v.ObservedComp(j)
		fmt.Fprintf(&b, "\nslave %d: out %d ready %v finish %v comm %v %v comp %v %v",
			j, v.Outstanding(j), v.ReadyEstimate(j), v.PredictFinish(j), comm, okc, comp, okp)
	}
	return b.String()
}

func fixturePlatform() core.Platform {
	return core.NewPlatform([]float64{0.1, 0.2, 0.3}, []float64{1, 2, 3})
}

// TestRetiringDriverAnswersAlike pins the window against the full books:
// on every fixture a retiring Driver answers every View query, task and
// retraction exactly as a full-books one does, step by step, and holds
// no books once everything has finished. The full-books Schedule is the
// one it always was (protocolDigest).
func TestRetiringDriverAnswersAlike(t *testing.T) {
	h := sha256.New()
	for _, f := range protocolFixtures {
		now := 0.0
		clock := func() float64 { return now }
		full, window := NewDriver(fixturePlatform(), clock), NewRetiringDriver(fixturePlatform(), clock)
		driveProtocol(t, f, &now, full, window)
		if len(window.tasks) != 0 || len(window.records) != 0 || len(window.state) != 0 {
			t.Fatalf("seed %d: %d book entries left after every task finished", f.seed, len(window.tasks))
		}
		s := full.Schedule()
		fmt.Fprintf(h, "%v|%v|%v\n", s.Instance.Platform, s.Instance.Tasks, s.Records)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != protocolDigest {
		t.Fatalf("full-books schedules digest %s, want %s", got, protocolDigest)
	}
}

// TestRetiringDriverWindowBound serves a million admissions with at most
// 64 outstanding: the books never grow past 128 entries.
func TestRetiringDriverWindowBound(t *testing.T) {
	now := 0.0
	d := NewRetiringDriver(core.NewPlatform([]float64{1}, []float64{1}), func() float64 { return now })
	oldest := core.TaskID(0)
	for i := 0; i < 1_000_000; i++ {
		id := d.Admit(core.Task{Release: now})
		d.MarkSent("test", id, 0)
		d.MarkArrived(id, 0, now)
		if d.Admitted()-d.Done() == 64 {
			d.MarkCompleted(oldest, 0, now, now)
			oldest++
		}
		now++
	}
	if c := max(cap(d.tasks), cap(d.records), cap(d.state), cap(d.pending.buf)); c > 128 {
		t.Fatalf("books hold %d entries for a backlog of 64", c)
	}
}

// TestRetiringDriverLetsBurstGo: once a burst's backlog has finished,
// the empty window lets go of arrays larger than keptBooks, so the
// master's memory follows the backlog down as well as up.
func TestRetiringDriverLetsBurstGo(t *testing.T) {
	now := 0.0
	d := NewRetiringDriver(core.NewPlatform([]float64{1}, []float64{1}), func() float64 { return now })
	for _, burst := range []int{keptBooks / 2, 4 * keptBooks} {
		for i := 0; i < burst; i++ {
			d.Admit(core.Task{})
		}
		for d.PendingCount() > 0 {
			id, _ := d.View().FirstPending()
			d.MarkSent("test", id, 0)
			d.MarkArrived(id, 0, now)
			d.MarkCompleted(id, 0, now, now)
		}
		if kept := cap(d.tasks); (burst <= keptBooks) != (kept > 0) || len(d.tasks) != 0 {
			t.Fatalf("after a burst of %d the empty window keeps %d of %d entries", burst, len(d.tasks), kept)
		}
	}
}

// TestRetiringDriverRetiredIDs pins what a retired ID means: finished.
// Sending it again panics as a re-send, an ID past the newest is still
// unknown, and reading its books panics naming it.
func TestRetiringDriverRetiredIDs(t *testing.T) {
	cases := []struct {
		name, want string
		run        func(d *Driver)
	}{
		{"re-send", "re-sent task 0", func(d *Driver) { d.MarkSent("t", 0, 0) }},
		{"unknown", "unknown task 2", func(d *Driver) { d.MarkSent("t", 2, 0) }},
		{"task", "task 0 is retired", func(d *Driver) { d.Task(0) }},
		{"release", "task 0 is retired", func(d *Driver) { d.View().Release(0) }},
		{"schedule", "retiring Driver", func(d *Driver) { d.Schedule() }},
	}
	for _, c := range cases {
		now := 0.0
		d := NewRetiringDriver(fixturePlatform(), func() float64 { return now })
		d.Admit(core.Task{})
		d.Admit(core.Task{})
		d.MarkSent("t", 0, 0)
		d.MarkArrived(0, 0, 1)
		d.MarkCompleted(0, 0, 1, 2)
		if d.off+d.head != 1 {
			t.Fatalf("window starts at %d after task 0 finished, want 1", d.off+d.head)
		}
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Fatalf("%s: panic %q, want one naming %q", c.name, msg, c.want)
				}
			}()
			c.run(d)
		}()
	}
}

// TestRetiringDriverRetractRetiresWindow: retracting the newest backlog
// and completing the rest retires every task, whichever finished first.
func TestRetiringDriverRetractRetiresWindow(t *testing.T) {
	now := 0.0
	d := NewRetiringDriver(fixturePlatform(), func() float64 { return now })
	for i := 0; i < 6; i++ {
		d.Admit(core.Task{})
	}
	d.MarkSent("t", 0, 1)
	d.MarkArrived(0, 1, 1)
	if got := d.RetractNewest(3); len(got) != 3 || got[0].ID != 5 || got[2].ID != 3 {
		t.Fatalf("RetractNewest(3) = %+v, want tasks 5, 4, 3", got)
	}
	if d.off+d.head != 0 || len(d.state) != 6 {
		t.Fatalf("window [%d, %d) before the oldest task finished, want [0, 6)", d.off+d.head, d.Admitted())
	}
	for _, id := range []core.TaskID{1, 2} {
		d.MarkSent("t", id, 0)
		d.MarkArrived(id, 0, 2)
	}
	d.MarkCompleted(2, 0, 3, 4)
	d.MarkCompleted(1, 0, 2, 3)
	if d.off+d.head != 0 {
		t.Fatalf("window moved past unfinished task 0 to %d", d.off+d.head)
	}
	d.MarkCompleted(0, 1, 1, 5)
	if d.off != 6 || d.head != 0 || len(d.state) != 0 {
		t.Fatalf("window [%d, %d) holding %d entries after every task finished", d.off+d.head, d.Admitted(), len(d.state))
	}
	if d.Admitted() != 6 || d.Done() != 3 || d.Retracted() != 3 {
		t.Fatalf("counts admitted %d done %d retracted %d", d.Admitted(), d.Done(), d.Retracted())
	}
}

// TestTaskFIFOSlidesUnderSteadyBacklog: a queue whose backlog never
// drains (always 1 to 64 deep) keeps only its backlog, not every value
// it ever held.
func TestTaskFIFOSlidesUnderSteadyBacklog(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q taskFIFO
	q.Push(0)
	next := 1
	for next < 1_000_000 {
		if q.Len() == 1 || (q.Len() < 64 && rng.Intn(2) == 0) {
			q.Push(next)
			next++
		} else {
			q.PopFront()
		}
	}
	if c := cap(q.buf); c > 256 {
		t.Fatalf("a 1–64 deep queue grew to cap %d over %d pushes", c, next)
	}
}
