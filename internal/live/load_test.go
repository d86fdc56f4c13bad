package live

// Race-instrumented coverage of Runtime.Load()/Pending(): concurrent
// producers and concurrent load readers against a serving runtime. The
// suite runs under -race in CI, so any unsynchronized counter access
// fails loudly here.

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

func TestLoadSnapshotUnderConcurrency(t *testing.T) {
	rt, err := New(Config{
		Platform:  core.NewPlatform([]float64{0.1, 0.2}, []float64{0.4, 0.8}),
		Scheduler: sched.New("LS"),
		World:     NewRealTime(10000),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()

	const producers, perProducer = 4, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers: every snapshot must be internally monotone
	// (completed ≤ dispatched ≤ admitted ≤ submitted) even mid-run.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l := rt.Load()
				if l.Completed > l.Dispatched || l.Dispatched > l.Admitted || l.Admitted > l.Submitted {
					t.Errorf("inconsistent load %+v", l)
					return
				}
				if l.QueueDepth() < 0 || l.Outstanding() < 0 {
					t.Errorf("negative backlog in %+v", l)
					return
				}
				if p := rt.Pending(); p < 0 {
					t.Errorf("negative pending %d", p)
					return
				}
			}
		}()
	}
	var prod sync.WaitGroup
	for p := 0; p < producers; p++ {
		prod.Add(1)
		go func() {
			defer prod.Done()
			for i := 0; i < perProducer; i++ {
				rt.Submit(JobSpec{})
			}
		}()
	}
	prod.Wait()
	rt.Drain()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	want := producers * perProducer
	l := rt.Load()
	if l.Submitted != want || l.Admitted != want || l.Dispatched != want || l.Completed != want {
		t.Fatalf("after drain: %+v, want all %d", l, want)
	}
	if l.QueueDepth() != 0 || l.Outstanding() != 0 {
		t.Fatalf("drained runtime has backlog: %+v", l)
	}
}

func TestLoadBatchSubmissionCountsImmediately(t *testing.T) {
	rt, err := New(Config{
		Platform:  core.NewPlatform([]float64{1}, []float64{1}),
		Scheduler: sched.New("LS"),
		World:     NewRealTime(5000),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if id := rt.Submit(JobSpec{}); id != i {
			t.Fatalf("submission %d got ID %d", i, id)
		}
	}
	// Submitted reflects acceptance synchronously, before the master has
	// necessarily seen the mail — that is the placement-facing contract.
	if l := rt.Load(); l.Submitted != 7 {
		t.Fatalf("submitted %d after 7 submissions", l.Submitted)
	}
	rt.Start()
	rt.Drain()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if l := rt.Load(); l.Completed != 7 || l.QueueDepth() != 0 {
		t.Fatalf("after drain: %+v", l)
	}
}
