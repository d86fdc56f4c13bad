package cluster

// Run admission: SubmitRuns places a batch of runs — stretches of jobs
// that share a spec — as one decision over the batch's total, and the
// intake hands every job its own run's spec. SubmitRange is a batch of
// one run; these tests pin that the wrapper changes nothing and that
// runs keep their specs through slab boundaries and across shards.

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
)

// unstartedAudited builds a four-shard cluster that never starts before
// Drain: nothing leaves the intake, so every load snapshot placement
// reads is a pure function of the submissions so far.
func unstartedAudited(t *testing.T, placement string) *Router {
	t.Helper()
	r, err := New(Config{
		Platform:     fourShardPlatform(),
		NewScheduler: newLS,
		Shards:       4,
		Placement:    placement,
		AuditDepth:   64,
		World:        func(int) live.World { return live.NewRealTime(50000) },
		Firehose:     &FirehoseConfig{QueueDepth: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// placements reads back where each of gids [0, n) was placed.
func placements(t *testing.T, r *Router, n int) []int {
	t.Helper()
	out := make([]int, n)
	for gid := range out {
		s, ok := r.ShardOf(gid)
		if !ok {
			t.Fatalf("gid %d not placed", gid)
		}
		out[gid] = s
	}
	return out
}

// decisions returns the audit ring's entries with the wall stamps
// zeroed, for comparison across routers.
func decisions(r *Router) []obs.Decision {
	ds := r.Audit().Recent(0)
	for i := range ds {
		ds[i].Wall = 0
	}
	return ds
}

// TestSubmitRangeIsOneRun pins the wrapper: on fresh routers of every
// placement policy, the same sequence of batches through SubmitRange and
// through SubmitRuns of one run yields the same bases, the same
// placement vector and the same audit entries.
func TestSubmitRangeIsOneRun(t *testing.T) {
	sizes := []int{1, 7, 1, 600, 3, 1, 1, 40}
	spec := live.JobSpec{CommScale: 1.5, CompScale: 0.5}
	for _, placement := range PlacementNames() {
		viaRange, viaRuns := unstartedAudited(t, placement), unstartedAudited(t, placement)
		total := 0
		for _, n := range sizes {
			a, errA := viaRange.SubmitRange(spec, n)
			b, errB := viaRuns.SubmitRuns([]Run{{Spec: spec, Count: n}})
			if errA != nil || errB != nil {
				t.Fatalf("%s: %v / %v", placement, errA, errB)
			}
			if a != total || b != total {
				t.Fatalf("%s: bases %d (range) and %d (runs), want %d", placement, a, b, total)
			}
			total += n
		}
		if got, want := placements(t, viaRuns, total), placements(t, viaRange, total); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: placement vectors differ:\nruns  %v\nrange %v", placement, got, want)
		}
		if got, want := decisions(viaRuns), decisions(viaRange); len(got) != len(sizes) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: audit differs:\nruns  %+v\nrange %+v", placement, got, want)
		}
		for _, r := range []*Router{viaRange, viaRuns} {
			if err := r.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSubmitRunsIsOneBatch pins that a multi-run batch is one decision:
// its runs share one consecutive ID range, the audit holds one entry
// with N = Σ counts, and placement is exactly that of a single range of
// the same total (placement never reads the spec).
func TestSubmitRunsIsOneBatch(t *testing.T) {
	runs := []Run{
		{Spec: live.JobSpec{CommScale: 2}, Count: 3},
		{Spec: live.JobSpec{CompScale: 3}, Count: 0},
		{Spec: live.JobSpec{CommScale: 0.5, CompScale: 0.5}, Count: 5},
		{Count: 1},
	}
	const sum = 9
	for _, placement := range PlacementNames() {
		r, ref := unstartedAudited(t, placement), unstartedAudited(t, placement)
		for _, rr := range []*Router{r, ref} {
			if _, err := rr.SubmitRange(live.JobSpec{}, 2); err != nil {
				t.Fatal(err)
			}
		}
		base, err := r.SubmitRuns(runs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.SubmitRange(live.JobSpec{}, sum); err != nil {
			t.Fatal(err)
		}
		if base != 2 || r.Jobs() != 2+sum {
			t.Fatalf("%s: base %d, %d jobs routed; want base 2, %d jobs", placement, base, r.Jobs(), 2+sum)
		}
		next, err := r.SubmitRange(live.JobSpec{}, 1)
		if err != nil || next != base+sum {
			t.Fatalf("%s: the batch after the runs starts at %d (%v), want %d", placement, next, err, base+sum)
		}
		ds := decisions(r) // newest first
		if len(ds) != 3 {
			t.Fatalf("%s: %d audit entries for three batches", placement, len(ds))
		}
		if d := ds[1]; d.Job != base || d.N != sum || d.Planned != sum {
			t.Fatalf("%s: run batch audited as %+v, want job %d n %d", placement, d, base, sum)
		}
		if got, want := placements(t, r, 2+sum), placements(t, ref, 2+sum); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: runs placed %v, one range of the total placed %v", placement, got, want)
		}
		if want := decisions(ref)[0]; !reflect.DeepEqual(ds[1], want) {
			t.Fatalf("%s: run batch audited %+v, one range of the total %+v", placement, ds[1], want)
		}
		for _, rr := range []*Router{r, ref} {
			if err := rr.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	none := unstartedAudited(t, PlacementRoundRobin)
	if base, err := none.SubmitRuns([]Run{{Count: 0}, {Count: -2}}); base != 0 || err != nil || none.Jobs() != 0 {
		t.Fatalf("empty runs: base %d err %v, %d jobs routed", base, err, none.Jobs())
	}
	if err := none.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitRunsKeepsEachRunsSpec drains a virtual-clock cluster fed
// with batches of runs and checks, through the global table, that every
// job was admitted with its own run's scales — with runs that straddle
// a slab boundary (the intake's 512-job slabs) and runs that placement
// splits across shards.
func TestSubmitRunsKeepsEachRunsSpec(t *testing.T) {
	batches := [][]int{
		{1, 511, 3, 700, 2},
		{1, 1, 1, 1},
		{1025},
		{300, 300, 300},
	}
	for _, placement := range PlacementNames() {
		r := firehoseCluster(t, fourShardPlatform(), 4, placement, FirehoseConfig{QueueDepth: 4096})
		var want []live.JobSpec // by global ID
		k := 0
		for _, sizes := range batches {
			runs := make([]Run, len(sizes))
			for i, n := range sizes {
				k++
				runs[i] = Run{Spec: live.JobSpec{CommScale: 1 + float64(k)/16, CompScale: 2 - float64(k)/32}, Count: n}
			}
			base, err := r.SubmitRuns(runs)
			if err != nil {
				t.Fatal(err)
			}
			if base != len(want) {
				t.Fatalf("%s: batch base %d, want %d", placement, base, len(want))
			}
			for _, run := range runs {
				for i := 0; i < run.Count; i++ {
					want = append(want, run.Spec)
				}
			}
		}
		if err := r.Drain(); err != nil {
			t.Fatal(err)
		}
		tasks := make([][]core.Task, len(r.Shards()))
		for i, sh := range r.Shards() {
			tasks[i] = sh.Result().Schedule.Instance.Tasks
		}
		used := map[int]bool{}
		for gid, spec := range want {
			shard, local, pending, routed := r.idx.lookup(gid)
			if !routed || pending {
				t.Fatalf("%s: gid %d unresolved after drain", placement, gid)
			}
			used[shard] = true
			task := tasks[shard][local]
			if int(task.ID) != local || task.CommScale != spec.CommScale || task.CompScale != spec.CompScale {
				t.Fatalf("%s: gid %d (shard %d local %d) admitted as %+v, its run's spec is %+v", placement, gid, shard, local, task, spec)
			}
		}
		if placement != PlacementPinned && len(used) != 4 {
			t.Fatalf("%s: runs landed on %d shards, want all 4", placement, len(used))
		}
	}
}
