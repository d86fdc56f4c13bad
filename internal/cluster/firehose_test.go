package cluster

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
)

// firehoseCluster builds a started virtual-clock cluster.
func firehoseCluster(t *testing.T, pl core.Platform, shards int, placement string, fh FirehoseConfig) *Router {
	t.Helper()
	r, err := New(Config{
		Platform:     pl,
		NewScheduler: newLS,
		Shards:       shards,
		Placement:    placement,
		World:        func(int) live.World { return live.NewVirtual() },
		Firehose:     &fh,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	return r
}

func fourShardPlatform() core.Platform {
	return core.NewPlatform(
		[]float64{0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.1, 0.2},
		[]float64{0.4, 0.8, 0.4, 0.8, 0.4, 0.8, 0.4, 0.8})
}

// TestFirehoseEndToEnd drives a moderate batch load through every
// placement policy on virtual-clock shards and checks the global-ID and
// completion contracts.
func TestFirehoseEndToEnd(t *testing.T) {
	pl := fourShardPlatform()
	for _, placement := range PlacementNames() {
		r := firehoseCluster(t, pl, 4, placement, FirehoseConfig{QueueDepth: 1024})
		const producers, batches, per = 4, 8, 37
		var wg sync.WaitGroup
		bases := make(chan int, producers*batches)
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					base, err := r.SubmitRange(live.JobSpec{CompScale: 1}, per)
					if err != nil {
						t.Errorf("%s: submit: %v", placement, err)
						return
					}
					bases <- base
				}
			}()
		}
		wg.Wait()
		close(bases)
		seen := map[int]bool{}
		for base := range bases {
			for i := 0; i < per; i++ {
				if seen[base+i] {
					t.Fatalf("%s: duplicate global id %d", placement, base+i)
				}
				seen[base+i] = true
			}
		}
		want := producers * batches * per
		if r.Jobs() != want {
			t.Fatalf("%s: routed %d of %d", placement, r.Jobs(), want)
		}
		if err := r.Drain(); err != nil {
			t.Fatalf("%s: drain: %v", placement, err)
		}
		total := 0
		for _, s := range r.Shards() {
			l := s.Load()
			if l.Completed != l.Submitted {
				t.Fatalf("%s: shard %d completed %d of %d", placement, s.Index(), l.Completed, l.Submitted)
			}
			total += l.Completed
		}
		if total != want {
			t.Fatalf("%s: merged completions %d of %d", placement, total, want)
		}
		// Every routed job resolves to a terminal state through the
		// global table (spot-check the ends).
		for _, gid := range []int{0, want / 2, want - 1} {
			info, ok := r.Job(gid)
			if !ok || info.State != live.StateDone {
				t.Fatalf("%s: job %d state %v ok=%v", placement, gid, info.State, ok)
			}
		}
	}
}

// TestFirehoseMillionJobs is the pure-throughput smoke: a million jobs
// (100k under -race) through a 4-shard virtual-clock cluster, with the
// merged completion count equal to the submitted count. This is the
// tier-1 witness that the intake loses nothing under full concurrency:
// producers racing the depth bound, slab recycling, drain sources
// parking and waking.
func TestFirehoseMillionJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("firehose smoke is long in -short mode")
	}
	n := firehoseSmokeJobs
	r := firehoseCluster(t, fourShardPlatform(), 4, PlacementLeastLoaded,
		FirehoseConfig{QueueDepth: 1 << 16})
	const producers = 8
	per := n / producers
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sent := 0; sent < per; {
				c := min(4096, per-sent)
				if _, err := r.SubmitRange(live.JobSpec{}, c); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				sent += c
			}
		}()
	}
	wg.Wait()
	if r.Jobs() != n {
		t.Fatalf("routed %d of %d", r.Jobs(), n)
	}
	if err := r.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	total := 0
	for _, s := range r.Shards() {
		l := s.Load()
		if l.Completed != l.Submitted {
			t.Fatalf("shard %d completed %d of %d submitted", s.Index(), l.Completed, l.Submitted)
		}
		total += l.Completed
	}
	if total != n {
		t.Fatalf("merged completions %d, submitted %d", total, n)
	}
	if err := r.Drain(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestFirehoseSubmitAfterDrain pins the backpressure path's shutdown:
// producers blocked on the depth bound (and fresh submitters) get
// ErrDraining once Drain begins, never a hang or a dropped job.
func TestFirehoseSubmitAfterDrain(t *testing.T) {
	r := firehoseCluster(t, fourShardPlatform(), 4, PlacementRoundRobin, FirehoseConfig{QueueDepth: 128})
	if _, err := r.SubmitRange(live.JobSpec{}, 10); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SubmitRange(live.JobSpec{}, 1); err != ErrDraining {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestMigrateVirtualClockMovesNothing pins that a virtual-clock cluster
// never migrates: its masters refuse StealPending (a virtual world
// admits no outside event), so Migrate moves nothing and the run stays
// deterministic.
func TestMigrateVirtualClockMovesNothing(t *testing.T) {
	r := firehoseCluster(t, fourShardPlatform(), 4, PlacementPinned, FirehoseConfig{})
	if _, err := r.SubmitRange(live.JobSpec{}, 50); err != nil {
		t.Fatal(err)
	}
	if moved := r.Migrate(0, 1, 10); moved != 0 {
		t.Fatalf("migrate moved %d jobs on a virtual clock", moved)
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestFirehoseRejectsSources pins the config validation: a cluster
// built with sources has no intake for a FirehoseConfig to size.
func TestFirehoseRejectsSources(t *testing.T) {
	pl := core.NewPlatform([]float64{0.1, 0.2}, []float64{0.4, 0.8})
	_, err := New(Config{
		Platform:     pl,
		NewScheduler: newLS,
		Firehose:     &FirehoseConfig{},
		Sources:      []func(*live.Source){func(src *live.Source) { src.Drain() }},
	})
	if err == nil {
		t.Fatal("firehose + sources accepted")
	}
}

// TestPickBatchMatchesSinglePicks pins the Placement contract that lets
// a single job be a batch of one: for every policy, PickBatch(n) over a
// fixed load snapshot produces exactly the sequence n successive
// PickBatch(1) calls (carrying staged forward) produce — with every
// shard live, with some shards declared dead, and with all of them dead.
func TestPickBatchMatchesSinglePicks(t *testing.T) {
	pl := fourShardPlatform()
	states := []struct {
		name string
		dead []int // shards whose every slave is declared down
	}{
		{"all-live", nil},
		{"dead-shards", []int{0, 2}},
		{"all-dead", []int{0, 1, 2, 3}},
	}
	for _, st := range states {
		r := testCluster(t, pl, 4, PlacementRoundRobin)
		shards := r.Shards()
		for _, s := range st.dead {
			for _, g := range shards[s].Slaves() {
				r.SetSlaveLive(g, false)
			}
		}
		loads := []live.Load{
			{Submitted: 9, Completed: 2},
			{Submitted: 1, Completed: 1},
			{Submitted: 5, Completed: 0},
			{Submitted: 3, Completed: 3},
		}
		for _, name := range PlacementNames() {
			one, err := NewPlacement(name)
			if err != nil {
				t.Fatal(err)
			}
			bat, err := NewPlacement(name)
			if err != nil {
				t.Fatal(err)
			}
			const count = 64
			stagedOne := make([]int, 4)
			stagedBat := make([]int, 4)
			want := make([]int, count)
			for i := range want {
				one.PickBatch(shards, loads, stagedOne, live.JobSpec{}, 1, want[i:i+1], nil)
			}
			got := make([]int, count)
			bat.PickBatch(shards, loads, stagedBat, live.JobSpec{}, count, got, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: job %d placed on %d, single picks placed it on %d", st.name, name, i, got[i], want[i])
				}
				if dead := shards[got[i]].LiveSlaves() == 0; dead && len(st.dead) < 4 {
					t.Fatalf("%s/%s: job %d placed on dead shard %d", st.name, name, i, got[i])
				}
			}
			for s := range stagedOne {
				if stagedOne[s] != stagedBat[s] {
					t.Fatalf("%s/%s: staged[%d] %d vs %d", st.name, name, s, stagedBat[s], stagedOne[s])
				}
			}
		}
		if err := r.Drain(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPickBatchAllocationFree pins the contract admission's per-batch
// cost rests on: no placement policy allocates in PickBatch, with or
// without a score buffer to fill.
func TestPickBatchAllocationFree(t *testing.T) {
	r := testCluster(t, fourShardPlatform(), 4, PlacementRoundRobin)
	defer r.Drain()
	shards := r.Shards()
	loads := []live.Load{
		{Submitted: 900, Admitted: 900, Completed: 100},
		{Submitted: 400, Admitted: 400, Completed: 200},
		{Submitted: 100, Admitted: 100, Completed: 90},
		{Submitted: 600, Admitted: 600, Completed: 50},
	}
	staged := make([]int, len(shards))
	out := make([]int, 1000)
	for _, name := range PlacementNames() {
		p, err := NewPlacement(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scores := range [][]float64{nil, make([]float64, len(shards))} {
			if n := testing.AllocsPerRun(100, func() {
				clear(staged)
				p.PickBatch(shards, loads, staged, live.JobSpec{}, len(out), out, scores)
			}); n != 0 {
				t.Fatalf("%s (score buffer %v): %v allocs per PickBatch, want 0", name, scores != nil, n)
			}
		}
	}
}

// TestConcurrentAdmissionAllocs holds admission's allocation budget
// under contention: 4 producers each pushing 16 batches of 256 jobs into
// a fresh unstarted cluster whose intake holds everything, so nothing
// drains and every allocation counted is admission's own. The budget is
// per batch (batch scratch, intake slabs), so a per-job allocation
// anywhere on the path overshoots the ceiling (concurrentAdmissionAllocs,
// race-tagged twins) by 16,384.
func TestConcurrentAdmissionAllocs(t *testing.T) {
	const producers, batches, per, runs = 4, 16, 256, 10
	const total = producers * batches * per
	routers := make([]*Router, runs+1) // AllocsPerRun makes one warm-up call
	for i := range routers {
		r, err := New(Config{
			Platform:     fourShardPlatform(),
			NewScheduler: newLS,
			Shards:       4,
			Placement:    PlacementLeastLoaded,
			World:        func(int) live.World { return live.NewRealTime(50000) },
			Firehose:     &FirehoseConfig{QueueDepth: 2 * total},
		})
		if err != nil {
			t.Fatal(err)
		}
		routers[i] = r
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		r := routers[next]
		next++
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					if _, err := r.SubmitRange(live.JobSpec{}, per); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if r.Jobs() != total {
			t.Fatalf("routed %d of %d", r.Jobs(), total)
		}
	})
	t.Logf("%v allocs per %d-job burst (ceiling %d)", allocs, total, concurrentAdmissionAllocs)
	if allocs > concurrentAdmissionAllocs {
		t.Fatalf("%v allocs per %d-job burst, ceiling %d", allocs, total, concurrentAdmissionAllocs)
	}
}

// TestRealClockDrainAdmitsWithinMilliseconds pins the real-clock drain's
// wait: at clock scale 1, a job submitted while its shard is busy reaches
// the runtime within a few milliseconds of wall time, because the drain
// source blocks on its queue's notify rather than polling the model
// clock (drainPoll would be 10 ms of wall time here). The shard stays
// busy throughout: its one slave needs 50 ms per transfer.
func TestRealClockDrainAdmitsWithinMilliseconds(t *testing.T) {
	r, err := New(Config{
		Platform:     core.NewPlatform([]float64{0.05}, []float64{0.05}),
		NewScheduler: newLS,
		World:        func(int) live.World { return live.NewRealTime(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	rt := r.Shards()[0].Runtime()
	// admitted waits for the runtime to hold n jobs and returns how long
	// that took after the submission.
	admitted := func(n int, since time.Time) time.Duration {
		for rt.Load().Submitted < n {
			runtime.Gosched()
		}
		return time.Since(since)
	}
	if _, err := r.SubmitRange(live.JobSpec{}, 1); err != nil {
		t.Fatal(err)
	}
	admitted(1, time.Now())
	// Each submission lands right after the drain admitted the previous
	// job and went back to waiting, with the shard busy. The fastest of
	// five keeps scheduler hiccups on a loaded host out of the verdict.
	best := time.Hour
	for n := 2; n <= 6; n++ {
		start := time.Now()
		if _, err := r.SubmitRange(live.JobSpec{}, 1); err != nil {
			t.Fatal(err)
		}
		best = min(best, admitted(n, start))
	}
	if best > 3*time.Millisecond {
		t.Fatalf("a job reached its busy shard's runtime %v after submission at best, want a few ms", best)
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestForeignSubmitTripsPrediction pins the sole-submitter invariant's
// alarm: a job that reaches a shard runtime other than through the
// intake (a re-admission by Runtime.Submit, say) shifts the runtime's
// local IDs, and the drain source refuses to carry on with a wrong
// prediction — the run fails instead of mis-indexing jobs.
func TestForeignSubmitTripsPrediction(t *testing.T) {
	r := testCluster(t, fourShardPlatform(), 2, PlacementRoundRobin)
	r.Shards()[1].Runtime().Submit(live.JobSpec{})
	if _, err := r.SubmitRange(live.JobSpec{}, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain(); err == nil || !strings.Contains(err.Error(), "predicted") {
		t.Fatalf("drain after a foreign submission: %v, want the prediction panic", err)
	}
}

// TestSourcesClusterRefusesSubmit pins that a cluster built with sources
// has no intake: every external submission is refused, before and after
// the run, and the run serves exactly what the sources submitted.
func TestSourcesClusterRefusesSubmit(t *testing.T) {
	tasks := core.Bag(6)
	r, err := New(Config{
		Platform:     conformancePlatforms()["fully-hetero"],
		NewScheduler: newLS,
		World:        func(int) live.World { return live.NewVirtual() },
		Sources:      []func(*live.Source){live.Replay(tasks)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.SubmitRange(live.JobSpec{}, 1); err == nil {
		t.Fatal("a cluster built with sources accepted a submission")
	}
	r.Start()
	if _, err := r.SubmitRange(live.JobSpec{}, 3); err == nil {
		t.Fatal("a running cluster built with sources accepted a submission")
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SubmitRange(live.JobSpec{}, 1); err == nil {
		t.Fatal("a drained cluster built with sources accepted a submission")
	}
	if r.Jobs() != 0 || len(r.Shards()[0].Result().Schedule.Records) != len(tasks) {
		t.Fatalf("routed %d jobs, served %d records; want 0 and %d",
			r.Jobs(), len(r.Shards()[0].Result().Schedule.Records), len(tasks))
	}
}

// TestRefreshLoadsWindow is the load-refresh rule's table: a refresh
// folds each shard's intake backlog into its load and arms the snapshot
// for min(Σ Outstanding, slabSize) placements — every batch while idle,
// as many placements as the population holds while it is small, one
// slab once it is larger than that.
func TestRefreshLoadsWindow(t *testing.T) {
	for _, tc := range []struct {
		name   string
		queued []int64
		window int
	}{
		{"idle", []int64{0, 0, 0, 0}, 0},
		{"small population", []int64{3, 0, 2, 0}, 5},
		{"beyond one slab", []int64{400, 300, 0, 1}, slabSize},
	} {
		r, err := New(Config{Platform: fourShardPlatform(), NewScheduler: newLS, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range tc.queued {
			r.fh.shards[i].queued.Store(q)
		}
		r.mu.Lock()
		r.refreshLoads()
		left, loads := r.loadsLeft, append([]live.Load(nil), r.loads...)
		r.mu.Unlock()
		if left != tc.window {
			t.Fatalf("%s: window %d, want %d", tc.name, left, tc.window)
		}
		for i, q := range tc.queued {
			if loads[i].Outstanding() != int(q) {
				t.Fatalf("%s: shard %d load %+v misses its intake backlog %d", tc.name, i, loads[i], q)
			}
		}
	}
}
