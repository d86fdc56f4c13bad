package cluster

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/sched"
	"repro/internal/sim"
)

func newLS() sim.Scheduler { return sched.New("LS") }

// submitIDs submits n nominal jobs as one batch and returns their global
// IDs: the range SubmitRange answers, expanded.
func submitIDs(r *Router, n int) ([]int, error) {
	base, err := r.SubmitRange(live.JobSpec{}, n)
	if err != nil {
		return nil, err
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = base + i
	}
	return ids, nil
}

// waitIntake returns once every job submitted so far has left the
// intake for its shard's runtime, so a test can read runtime counters —
// or steal — right after a submission.
func waitIntake(r *Router) {
	for r.FirehoseDepth() > 0 {
		runtime.Gosched()
	}
}

// testCluster builds a started real-time cluster on a fast clock.
func testCluster(t *testing.T, pl core.Platform, shards int, placement string) *Router {
	t.Helper()
	r, err := New(Config{
		Platform:     pl,
		NewScheduler: newLS,
		Shards:       shards,
		Placement:    placement,
		World:        func(int) live.World { return live.NewRealTime(10000) },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	return r
}

func TestClusterEndToEnd(t *testing.T) {
	pl := core.NewPlatform(
		[]float64{0.1, 0.1, 0.2, 0.2, 0.3, 0.3},
		[]float64{0.4, 0.8, 0.4, 0.8, 0.4, 0.8})
	for _, placement := range PlacementNames() {
		r := testCluster(t, pl, 3, placement)
		if r.Placement() != placement {
			t.Fatalf("placement %q", r.Placement())
		}
		const producers, batches, per = 3, 4, 10
		var wg sync.WaitGroup
		idCh := make(chan []int, producers*batches)
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					ids, err := submitIDs(r, per)
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					idCh <- ids
				}
			}()
		}
		wg.Wait()
		close(idCh)
		seen := map[int]bool{}
		for ids := range idCh {
			if len(ids) != per {
				t.Fatalf("%s: batch returned %d ids", placement, len(ids))
			}
			for _, id := range ids {
				if seen[id] {
					t.Fatalf("%s: duplicate global id %d", placement, id)
				}
				seen[id] = true
			}
		}
		want := producers * batches * per
		if r.Jobs() != want {
			t.Fatalf("%s: routed %d of %d", placement, r.Jobs(), want)
		}
		if err := r.Drain(); err != nil {
			t.Fatalf("%s: drain: %v", placement, err)
		}

		// Every job completed; per-shard counts add up to the total.
		total := 0
		for _, l := range r.Loads() {
			if l.Completed != l.Submitted || l.QueueDepth() != 0 {
				t.Fatalf("%s: shard load %+v after drain", placement, l)
			}
			total += l.Completed
		}
		if total != want {
			t.Fatalf("%s: shards completed %d of %d", placement, total, want)
		}
		if r.Pending() != 0 {
			t.Fatalf("%s: pending %d after drain", placement, r.Pending())
		}

		// Global job views: done, globally-indexed slave within the
		// owning shard's slave set.
		for gid := range seen {
			info, ok := r.Job(gid)
			if !ok || info.State != live.StateDone || info.ID != gid {
				t.Fatalf("%s: job %d: ok=%v info=%+v", placement, gid, ok, info)
			}
			si, ok := r.ShardOf(gid)
			if !ok {
				t.Fatalf("%s: no shard for %d", placement, gid)
			}
			owns := false
			for _, j := range r.Shards()[si].Slaves() {
				if j == info.Slave {
					owns = true
				}
			}
			if !owns {
				t.Fatalf("%s: job %d ran on slave %d, not owned by shard %d (%v)",
					placement, gid, info.Slave, si, r.Shards()[si].Slaves())
			}
		}

		// Submissions after drain are refused, not lost.
		if _, err := r.SubmitRange(live.JobSpec{}, 1); err != ErrDraining {
			t.Fatalf("%s: submit after drain: %v", placement, err)
		}
		if !r.Draining() {
			t.Fatalf("%s: not draining after Drain", placement)
		}
	}
}

func TestClusterLeastLoadedAvoidsBackloggedShard(t *testing.T) {
	// Shard 1 (slaves 1, 3: p = 400 → 40ms wall at ×10000) is ~1000×
	// slower than shard 0 (slaves 0, 2: p = 0.4). Unpaced bursts stripe
	// a few jobs onto the slow shard, where they pin its outstanding
	// count up for the rest of the test; after that, least-loaded must
	// route every paced submission to the fast shard. (Pacing by wall
	// time alone is machine-speed dependent: depending on the host the
	// shards settle into a tie-break cycle right on the assertion
	// boundary.)
	pl := core.NewPlatform(
		[]float64{0.01, 0.01, 0.01, 0.01},
		[]float64{0.4, 400, 0.4, 400})
	r := testCluster(t, pl, 2, PlacementLeastLoaded)
	deadline := time.Now().Add(2 * time.Second)
	for r.Loads()[1].Outstanding() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("could not backlog the slow shard")
		}
		for i := 0; i < 8; i++ {
			if _, err := r.SubmitRange(live.JobSpec{}, 1); err != nil {
				t.Fatal(err)
			}
		}
		waitIntake(r)
	}
	// The unpaced bursts armed a load snapshot (see refreshLoads) whose
	// remaining placements were decided against loads from before the
	// fast shard drained; the paced phase is judged once it has run out.
	r.mu.Lock()
	stale := r.loadsLeft
	r.mu.Unlock()
	for i := 0; i < stale+30; i++ {
		// Let the fast shard absorb its queue first, so every decision
		// compares an empty fast shard against the stuck backlog.
		waitIntake(r)
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) && r.Loads()[0].Outstanding() > 0 {
			time.Sleep(100 * time.Microsecond)
		}
		gid, err := r.SubmitRange(live.JobSpec{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if i < stale {
			continue
		}
		if s, ok := r.ShardOf(gid); !ok || s != 0 {
			t.Fatalf("paced job %d placed on backlogged shard %d", gid, s)
		}
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	loads := r.Loads()
	if loads[0].Completed <= loads[1].Completed*2 {
		t.Fatalf("least-loaded did not favor the fast shard: %+v", loads)
	}
}

func TestClusterHetAwarePrefersFastShardUpFront(t *testing.T) {
	// A single batch placed before ANY completion feedback exists: the
	// nominal-rate ECT estimate must already split the batch unevenly
	// toward the fast shard, where least-loaded (all loads zero) would
	// stripe it evenly. Shard 0 (slaves 0, 2) is 10× faster.
	pl := core.NewPlatform(
		[]float64{0.01, 0.01, 0.01, 0.01},
		[]float64{0.4, 4, 0.4, 4})
	r, err := New(Config{
		Platform:     pl,
		NewScheduler: newLS,
		Shards:       2,
		Placement:    PlacementHetAware,
		World:        func(int) live.World { return live.NewRealTime(10000) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := submitIDs(r, 22)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 22 {
		t.Fatalf("%d ids", len(ids))
	}
	onFast := 0
	for _, gid := range ids {
		if s, _ := r.ShardOf(gid); s == 0 {
			onFast++
		}
	}
	// Rates are 10:1, so the staged-count-aware ECT should put roughly
	// 20 of 22 jobs on shard 0; anything clearly above half proves the
	// policy is speed-sensitive, not load-striping.
	if onFast < 15 {
		t.Fatalf("het-aware put only %d of 22 jobs on the 10× shard", onFast)
	}
	r.Start()
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	pl := core.NewPlatform([]float64{1, 1}, []float64{2, 2})
	if _, err := New(Config{Platform: pl}); err == nil || !strings.Contains(err.Error(), "scheduler") {
		t.Fatalf("missing scheduler: %v", err)
	}
	if _, err := New(Config{Platform: pl, NewScheduler: newLS, Shards: 3}); err == nil {
		t.Fatal("k > m accepted")
	}
	if _, err := New(Config{Platform: pl, NewScheduler: newLS, Placement: "best-effort"}); err == nil {
		t.Fatal("unknown placement accepted")
	}
	if _, err := New(Config{Platform: pl, NewScheduler: newLS, Partition: "zigzag"}); err == nil {
		t.Fatal("unknown partition accepted")
	}
	if _, err := New(Config{Platform: pl, NewScheduler: newLS, Shards: 2,
		Sources: []func(*live.Source){func(*live.Source) {}}}); err == nil {
		t.Fatal("sources with 2 shards accepted")
	}
	if _, err := New(Config{NewScheduler: newLS}); err == nil {
		t.Fatal("empty platform accepted")
	}
	// Defaults: 1 shard, striped, round-robin.
	r, err := New(Config{Platform: pl, NewScheduler: newLS,
		World: func(int) live.World { return live.NewRealTime(10000) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Shards()) != 1 || r.Placement() != PlacementRoundRobin || r.Partition() != core.PartitionStriped {
		t.Fatalf("defaults: %d shards, %q, %q", len(r.Shards()), r.Placement(), r.Partition())
	}
	r.Start()
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterJobUnknownIDs(t *testing.T) {
	pl := core.NewPlatform([]float64{1}, []float64{1})
	r := testCluster(t, pl, 1, PlacementRoundRobin)
	if _, ok := r.Job(-1); ok {
		t.Fatal("negative id found")
	}
	if _, ok := r.Job(0); ok {
		t.Fatal("unrouted id found")
	}
	if _, ok := r.ShardOf(99); ok {
		t.Fatal("unrouted shard lookup succeeded")
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
}
