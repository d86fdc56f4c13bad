package cluster

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/live"
)

// firehoseCluster builds a started virtual-clock firehose cluster.
func firehoseCluster(t *testing.T, pl core.Platform, shards int, placement string, fh FirehoseConfig) *Router {
	t.Helper()
	r, err := New(Config{
		Platform:     pl,
		NewScheduler: newLS,
		Shards:       shards,
		Placement:    placement,
		World:        func(int) live.World { return live.NewVirtual() },
		Firehose:     &fh,
		EventLogCap:  4096,
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
		r := firehoseCluster(t, pl, 4, placement, FirehoseConfig{QueueDepth: 1024, SlabSize: 64})
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
	if err := r.Wait(); err != nil {
		t.Fatalf("wait after drain: %v", err)
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
	if _, err := r.SubmitSpecs([]live.JobSpec{{}}); err != ErrDraining {
		t.Fatalf("submitspecs after drain: %v", err)
	}
	if ids, err := r.SubmitBatch(live.JobSpec{}, 3); err != ErrDraining || ids != nil {
		t.Fatalf("submitbatch after drain: ids=%v err=%v", ids, err)
	}
}

// TestFirehoseMigrateDisabled pins that firehose mode refuses Migrate:
// the sole-submitter invariant behind local-ID prediction must hold.
func TestFirehoseMigrateDisabled(t *testing.T) {
	r := firehoseCluster(t, fourShardPlatform(), 4, PlacementPinned, FirehoseConfig{})
	if _, err := r.SubmitRange(live.JobSpec{}, 50); err != nil {
		t.Fatal(err)
	}
	if moved := r.Migrate(0, 1, 10); moved != 0 {
		t.Fatalf("migrate moved %d jobs in firehose mode", moved)
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestFirehoseRejectsSources pins the config validation: in-world
// sources and the firehose intake cannot coexist.
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

// TestSubmitSpecsHeterogeneous pins the direct (non-firehose) batched
// path: heterogeneous specs keep their scales through placement, and
// global IDs are the consecutive range the base promises.
func TestSubmitSpecsHeterogeneous(t *testing.T) {
	pl := core.NewPlatform(
		[]float64{0.1, 0.1, 0.2, 0.2}, []float64{0.4, 0.8, 0.4, 0.8})
	r := testCluster(t, pl, 2, PlacementLeastLoaded)
	specs := make([]live.JobSpec, 100)
	for i := range specs {
		specs[i] = live.JobSpec{CommScale: 1 + float64(i%3), CompScale: 1 + float64(i%5)}
	}
	base, err := r.SubmitSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	if base != 0 || r.Jobs() != len(specs) {
		t.Fatalf("base %d, routed %d", base, r.Jobs())
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		info, ok := r.Job(base + i)
		if !ok || info.State != live.StateDone {
			t.Fatalf("job %d state %v ok=%v", base+i, info.State, ok)
		}
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
