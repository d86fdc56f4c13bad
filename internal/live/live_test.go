package live

// Real-substrate tests: goroutine slaves on the scaled wall clock, with
// concurrent external producers. Wall-clock runs cannot be validated
// against exact nominal costs (sleep overshoot is real), so these tests
// assert the structural invariants instead: every job completes, record
// times are monotone, the one-port constraint holds (the master
// serializes transfers), and per-slave execution is FIFO.

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
)

// benchSpeedup compresses model seconds so a test platform with ~1s
// costs runs in milliseconds of wall time.
const testSpeedup = 4000

func testPlatform() core.Platform {
	return core.NewPlatform([]float64{0.5, 1, 2}, []float64{2, 4, 5})
}

func checkStructure(t *testing.T, s core.Schedule) {
	t.Helper()
	if err := s.Instance.Platform.Validate(); err != nil {
		t.Fatalf("platform: %v", err)
	}
	// Monotone per-task lifecycle.
	for _, r := range s.Records {
		if r.SendStart < r.Release || r.Arrive < r.SendStart || r.Start < r.Arrive || r.Complete < r.Start {
			t.Fatalf("task %d: non-monotone record %+v", r.Task, r)
		}
	}
	// One-port: transfers never overlap.
	recs := append([]core.Record(nil), s.Records...)
	for i := range recs {
		for k := range recs {
			if i == k {
				continue
			}
			a, b := recs[i], recs[k]
			if a.SendStart < b.Arrive && b.SendStart < a.Arrive {
				t.Fatalf("transfers overlap: task %d [%v,%v] and task %d [%v,%v]",
					a.Task, a.SendStart, a.Arrive, b.Task, b.SendStart, b.Arrive)
			}
		}
	}
	// Per-slave FIFO, no overlapping computations.
	bySlave := map[int][]core.Record{}
	for _, r := range recs {
		bySlave[r.Slave] = append(bySlave[r.Slave], r)
	}
	for j, rs := range bySlave {
		for i := range rs {
			for k := range rs {
				if i == k {
					continue
				}
				if rs[i].Start < rs[k].Complete && rs[k].Start < rs[i].Complete {
					t.Fatalf("slave %d computes tasks %d and %d simultaneously", j, rs[i].Task, rs[k].Task)
				}
			}
		}
	}
}

func TestRealRuntimeConcurrentProducers(t *testing.T) {
	tracker := NewTracker()
	rt, err := New(Config{
		Platform:  testPlatform(),
		Scheduler: sched.New("LS"),
		World:     NewRealTime(testSpeedup),
		Observer:  func(ev Event) { tracker.Observe(ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()

	const producers, perProducer = 4, 10
	var wg sync.WaitGroup
	ids := make(chan int, producers*perProducer)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				ids <- rt.Submit(JobSpec{})
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[int]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate job id %d", id)
		}
		seen[id] = true
	}
	rt.Drain()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	res := rt.Result()
	if got, want := len(res.Schedule.Records), producers*perProducer; got != want {
		t.Fatalf("%d records, want %d", got, want)
	}
	checkStructure(t, res.Schedule)

	counts := tracker.CountsSnapshot()
	if counts.Submitted != producers*perProducer || counts.Completed != producers*perProducer {
		t.Fatalf("tracker counts %+v", counts)
	}
	if lat := tracker.Stats().Latencies; len(lat) != producers*perProducer {
		t.Fatalf("%d latencies", len(lat))
	} else {
		for _, l := range lat {
			if l <= 0 {
				t.Fatalf("non-positive latency %v", l)
			}
		}
	}
	for id := range seen {
		j, ok := tracker.Job(id)
		if !ok || j.State != StateDone {
			t.Fatalf("job %d not done: %+v (ok=%v)", id, j, ok)
		}
	}
}

func TestRealRuntimeSourceActor(t *testing.T) {
	// A Source works on the real substrate too: in-world load generation.
	res, err := Run(Config{
		Platform:  testPlatform(),
		Scheduler: sched.New("SO-LS"),
		World:     NewRealTime(testSpeedup),
		Sources: []func(*Source){func(src *Source) {
			for i := 0; i < 15; i++ {
				src.Submit(JobSpec{})
				src.Sleep(0.2)
			}
			src.Drain()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule.Records) != 15 {
		t.Fatalf("%d records, want 15", len(res.Schedule.Records))
	}
	checkStructure(t, res.Schedule)
}

func TestRealRuntimeDrainWithoutJobs(t *testing.T) {
	rt, err := New(Config{
		Platform:  testPlatform(),
		Scheduler: sched.New("SRPT"),
		World:     NewRealTime(testSpeedup),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	rt.Drain()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := len(rt.Result().Schedule.Records); n != 0 {
		t.Fatalf("%d records on an empty run", n)
	}
}

func TestRealWorldActorPanicSurfacesAsError(t *testing.T) {
	w := NewRealTime(testSpeedup)
	rt, err := New(Config{
		Platform:  testPlatform(),
		Scheduler: sched.New("LS"),
		World:     w,
		Sources: []func(*Source){func(src *Source) {
			src.Submit(JobSpec{})
			panic("source exploded")
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	if err := rt.Wait(); err == nil {
		t.Fatal("actor panic did not surface from Wait")
	}
}

func TestRefusedSendPanicsMaster(t *testing.T) {
	// The live master never marks a slave dead, so a send its Driver
	// refuses is a bug: it must stop the world loudly, not drop the job.
	w := NewRealTime(testSpeedup)
	rt, err := New(Config{Platform: testPlatform(), Scheduler: sched.New("LS"), World: w})
	if err != nil {
		t.Fatal(err)
	}
	rt.prog.drv = sim.NewDriver(rt.prog.pl, w.clock.Now)
	for j := 0; j < rt.prog.pl.M(); j++ {
		rt.prog.drv.Fail(j)
	}
	rt.Start()
	rt.Submit(JobSpec{})
	err = rt.Wait()
	if err == nil || !strings.Contains(err.Error(), "dead slave") {
		t.Fatalf("Wait error %v, want the master's refused-send panic", err)
	}
}

func TestVirtualWorldRejectsExternalSubmit(t *testing.T) {
	rt, err := New(Config{
		Platform:  testPlatform(),
		Scheduler: sched.New("LS"),
		World:     NewVirtual(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("external Submit into a virtual world did not panic")
		}
	}()
	rt.Submit(JobSpec{})
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Scheduler: sched.New("LS")}); err == nil {
		t.Fatal("empty platform accepted")
	}
	if _, err := New(Config{Platform: testPlatform()}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
}

func TestSourceSubmitAfterDrainSurfacesAsError(t *testing.T) {
	// A source submitting after another source drained must fail loudly
	// (world error), never silently drop the job: the master may already
	// have exited.
	rt, err := New(Config{
		Platform:  testPlatform(),
		Scheduler: sched.New("LS"),
		World:     NewRealTime(testSpeedup),
		Sources: []func(*Source){
			func(src *Source) {
				src.Submit(JobSpec{})
				src.Drain()
			},
			func(src *Source) {
				src.Sleep(2) // well after the first source drained
				src.Submit(JobSpec{})
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	if err := rt.Wait(); err == nil {
		t.Fatal("post-drain Submit did not surface as a world error")
	}
}
