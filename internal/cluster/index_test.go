package cluster

import (
	"sync"
	"testing"

	"repro/internal/live"
)

// TestJobIndexPackRef pins the packed-word encoding: round-trips for
// boundary locations and the zero-word pending sentinel staying
// unreachable from any real (shard, local) pair.
func TestJobIndexPackRef(t *testing.T) {
	cases := [][2]int{{0, 0}, {0, 1}, {7, 0}, {3, 1 << 30}, {255, 4095}}
	for _, c := range cases {
		p := packRef(c[0], c[1])
		if p == 0 {
			t.Fatalf("packRef(%d, %d) produced the pending sentinel", c[0], c[1])
		}
		s, l := unpackRef(p)
		if s != c[0] || l != c[1] {
			t.Fatalf("unpackRef(packRef(%d, %d)) = (%d, %d)", c[0], c[1], s, l)
		}
	}
}

// TestJobIndexLifecycle walks one entry through allocation, publication
// and migration re-pointing, checking the pending window in between.
func TestJobIndexLifecycle(t *testing.T) {
	var x jobIndex
	if _, _, _, ok := x.lookup(0); ok {
		t.Fatal("lookup on an empty index reported an issued ID")
	}
	base := x.alloc(3)
	if base != 0 {
		t.Fatalf("first alloc base = %d, want 0", base)
	}
	if x.count() != 3 {
		t.Fatalf("count = %d, want 3", x.count())
	}
	if _, _, pending, ok := x.lookup(1); !ok || !pending {
		t.Fatalf("allocated-unpublished ID: pending=%v ok=%v, want true true", pending, ok)
	}
	x.set(1, 2, 41)
	if s, l, pending, ok := x.lookup(1); !ok || pending || s != 2 || l != 41 {
		t.Fatalf("lookup(1) = (%d, %d, %v, %v), want (2, 41, false, true)", s, l, pending, ok)
	}
	x.repoint(1, 0, 7)
	if s, l, _, _ := x.lookup(1); s != 0 || l != 7 {
		t.Fatalf("after repoint lookup(1) = (%d, %d), want (0, 7)", s, l)
	}
	if _, _, _, ok := x.lookup(3); ok {
		t.Fatal("lookup past the allocator reported an issued ID")
	}
	if _, _, _, ok := x.lookup(-1); ok {
		t.Fatal("lookup(-1) reported an issued ID")
	}
}

// TestJobIndexGrowth crosses many chunk boundaries from concurrent
// allocators and verifies every entry survives the spine republications.
func TestJobIndexGrowth(t *testing.T) {
	var x jobIndex
	const workers, per = 8, 3 * indexChunkSize
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				gid := x.alloc(1)
				x.set(gid, w, i)
			}
		}()
	}
	wg.Wait()
	if got := x.count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	perWorker := make([]int, workers)
	for gid := 0; gid < workers*per; gid++ {
		s, _, pending, ok := x.lookup(gid)
		if !ok || pending {
			t.Fatalf("gid %d: pending=%v ok=%v after all sets", gid, pending, ok)
		}
		perWorker[s]++
	}
	for w, n := range perWorker {
		if n != per {
			t.Fatalf("worker %d published %d entries, want %d", w, n, per)
		}
	}
}

// TestFirehoseReadUnderIngest is the lock-free read-path race test: while
// concurrent producers pour batches through the intake, reader
// goroutines hammer Job, ShardOf and Jobs. Under -race this fails on any
// unsynchronized access in the index publication or spine growth; the
// assertions pin that every ID a reader observes resolves consistently
// and that the final population is exact.
func TestFirehoseReadUnderIngest(t *testing.T) {
	r := firehoseCluster(t, fourShardPlatform(), 4, PlacementLeastLoaded,
		FirehoseConfig{QueueDepth: 4096})
	// Batches span several slabs per shard (least-loaded spreads each
	// 2100-job batch over the four shards).
	const producers, batches, per = 4, 3, 2100
	const total = producers * batches * per

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for rd := 0; rd < 4; rd++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := r.Jobs()
				if n == 0 {
					continue
				}
				gid := n - 1
				info, ok := r.Job(gid)
				if !ok {
					t.Errorf("Job(%d) missing below Jobs()=%d", gid, n)
					return
				}
				if info.ID != gid {
					t.Errorf("Job(%d) returned ID %d", gid, info.ID)
					return
				}
				if shard, routed := r.ShardOf(gid); routed {
					if shard < 0 || shard >= 4 {
						t.Errorf("ShardOf(%d) = %d out of range", gid, shard)
						return
					}
				}
			}
		}()
	}

	var producersWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		producersWG.Add(1)
		go func() {
			defer producersWG.Done()
			for b := 0; b < batches; b++ {
				if _, err := r.SubmitRange(live.JobSpec{CompScale: 1}, per); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	producersWG.Wait()
	close(stop)
	readers.Wait()

	if got := r.Jobs(); got != total {
		t.Fatalf("Jobs() = %d, want %d", got, total)
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	completed := 0
	for _, s := range r.Shards() {
		l := s.Load()
		if l.Completed != l.Submitted {
			t.Fatalf("shard %d completed %d of %d submitted", s.Index(), l.Completed, l.Submitted)
		}
		completed += l.Completed
	}
	if completed != total {
		t.Fatalf("completed %d, want %d", completed, total)
	}
	// After the drain every issued ID must resolve to a routed, completed
	// job — no entry may have been lost to a spine republication.
	for gid := 0; gid < total; gid++ {
		info, ok := r.Job(gid)
		if !ok || info.State != live.StateDone {
			t.Fatalf("gid %d after drain: ok=%v state=%v", gid, ok, info.State)
		}
		if _, routed := r.ShardOf(gid); !routed {
			t.Fatalf("gid %d unrouted after drain", gid)
		}
	}
}

// TestJobIndexReadZeroAlloc is the read path's hard contract, the one
// GET /v1/jobs/{id} rests on: resolving a global ID through the chunked
// index (ShardOf + Job) allocates nothing. The population crosses many
// chunk boundaries and is read after the drain, so no shard goroutine's
// allocation lands in the count.
func TestJobIndexReadZeroAlloc(t *testing.T) {
	r := firehoseCluster(t, fourShardPlatform(), 4, PlacementLeastLoaded, FirehoseConfig{QueueDepth: 16384})
	const jobs = 10_000
	for batch := 0; batch < 10; batch++ {
		if _, err := r.SubmitRange(live.JobSpec{}, jobs/10); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	gid := 0
	allocs := testing.AllocsPerRun(jobs, func() {
		if _, ok := r.ShardOf(gid); !ok {
			t.Fatalf("gid %d unrouted", gid)
		}
		if info, ok := r.Job(gid); !ok || info.ID != gid {
			t.Fatalf("gid %d: read back %+v, %v", gid, info, ok)
		}
		gid = (gid + 7919) % jobs
	})
	if allocs != 0 {
		t.Fatalf("ShardOf + Job: %v allocs per lookup, want 0", allocs)
	}
}
