package cluster

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/live"
)

// TestRetainedBytesPerJob is the counted retention floor: a drained
// 4-shard virtual cluster fed through SubmitRuns keeps at most 110 bytes
// per job it served — one tracker entry (72 B) and one index word (8 B),
// plus their pages' slack. The master's own books retire with each job,
// so they add nothing once the backlog is gone. The heap is read after
// two collections (sync.Pool contents survive the first).
func TestRetainedBytesPerJob(t *testing.T) {
	const ceiling = 110
	n := retentionJobs
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	r := firehoseCluster(t, fourShardPlatform(), 4, PlacementLeastLoaded, FirehoseConfig{QueueDepth: 1 << 14})
	runs := []Run{{Spec: live.JobSpec{}, Count: 300}, {Spec: live.JobSpec{CommScale: 2, CompScale: 0.5}, Count: 700}}
	for sent := 0; sent < n; sent += 1000 {
		if _, err := r.SubmitRuns(runs); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	after := heap()
	if got := r.Jobs(); got != n {
		t.Fatalf("routed %d of %d jobs", got, n)
	}
	perJob := (float64(after) - float64(before)) / float64(n)
	t.Logf("%d jobs: %.1f B/job retained", n, perJob)
	if perJob > ceiling {
		t.Fatalf("the drained cluster retains %.1f B/job, ceiling %d", perJob, ceiling)
	}
	runtime.KeepAlive(r)
}

// TestJobIndexChunkSize pins the index's footprint: a chunk is exactly
// its 32 KiB of entries (a size class, so nothing is lost to rounding),
// and the spine holds exactly the chunks the issued IDs need — growth is
// geometric only in the spine's pointer array.
func TestJobIndexChunkSize(t *testing.T) {
	if got := unsafe.Sizeof(indexChunk{}); got != 32<<10 {
		t.Fatalf("indexChunk is %d bytes, want %d", got, 32<<10)
	}
	var x jobIndex
	for _, n := range []int{1, 4095, 2, 4098, 3 * indexChunkSize, 1, 5*indexChunkSize + 17} {
		x.alloc(n)
		want := (x.count() + indexChunkSize - 1) / indexChunkSize
		if got := len(x.chunks()); got != want {
			t.Fatalf("after %d IDs the spine holds %d chunks, want %d", x.count(), got, want)
		}
	}
}
