package cluster

// The global job index: a chunked, append-only table mapping global job
// IDs to their (shard, runtime-local) location, built so the read path
// never takes a lock.
//
// Memory model. The table is a spine of fixed-size chunks. The spine —
// a []*indexChunk — is published as a whole through an atomic.Pointer:
// growth builds a longer copy and stores it, so a reader's Load always
// observes a fully-formed slice whose chunks were zeroed before the
// publishing Store (release/acquire pairing on the spine pointer).
// Entries are single atomic words: a packed (shard+1, local) pair, with
// the zero word reserved to mean "ID allocated, entry not yet
// published". Three actor classes touch the structure:
//
//   - Allocation (alloc) bumps the atomic next-ID counter and grows the
//     spine under growMu if the new range outruns it. IDs are therefore
//     issued in one atomic step — the order-preserving global-ID
//     allocator the concurrent intake path relies on.
//   - Publication (set) stores each entry's packed word exactly once,
//     by the producer that allocated the range. No lock: distinct
//     producers own distinct IDs.
//   - Re-pointing (repoint, migration only) rewrites an existing entry
//     under one of a few striped mutexes, chosen by chunk, serializing
//     concurrent migrations of neighboring jobs without ever blocking a
//     reader. A
//     migration learns which IDs to re-point by scanning the table
//     backward for the stolen jobs' locations (owners): there is no
//     reverse table on the admission path to keep up to date.
//
// Readers (lookup) load the counter, the spine and the entry word —
// three atomic loads, zero locks, zero allocations. An allocated ID
// whose word is still zero (its producer is between alloc and set) is
// reported as pending: the router answers "queued" for it, the same
// placeholder it uses for accepted-but-not-yet-observed jobs.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/live"
)

const (
	// indexChunkBits sizes a chunk at 4096 entries (32 KiB of packed
	// words): large enough that a million-job run touches the grow path
	// ~250 times, small enough that an idle cluster pays one chunk.
	indexChunkBits = 12
	indexChunkSize = 1 << indexChunkBits
	indexChunkMask = indexChunkSize - 1
)

// indexChunk is one fixed-size run of packed entries: exactly 32 KiB, a
// Go size class, so a chunk wastes nothing to rounding.
type indexChunk struct {
	entries [indexChunkSize]atomic.Uint64
}

// repointStripes is how many mutexes guard re-pointing; chunk i takes
// stripe i mod repointStripes.
const repointStripes = 16

// packRef encodes a (shard, local) pair into one non-zero word. Shard
// is biased by one so the zero word stays free as the "not yet
// published" sentinel (shard 0, local 0 is a real location).
func packRef(shard, local int) uint64 {
	return uint64(shard+1)<<32 | uint64(uint32(local))
}

// unpackRef inverts packRef.
func unpackRef(p uint64) (shard, local int) {
	return int(p>>32) - 1, int(uint32(p))
}

// jobIndex is the lock-free global job table. The zero value is ready
// to use.
type jobIndex struct {
	// next is the global-ID allocator: IDs [0, next) have been issued.
	next atomic.Int64
	// spine is the atomically published chunk table.
	spine atomic.Pointer[[]*indexChunk]
	// growMu serializes spine growth (allocation-path only).
	growMu sync.Mutex
	// repointMu guards writers that mutate existing entries (migration
	// re-pointing) against each other; readers and first-time
	// publication never take it.
	repointMu [repointStripes]sync.Mutex
}

// count returns how many global IDs have been issued.
func (x *jobIndex) count() int { return int(x.next.Load()) }

// alloc issues a contiguous range of count global IDs and returns its
// base, growing the spine to cover the range. Safe for concurrent use.
func (x *jobIndex) alloc(count int) int {
	base := int(x.next.Add(int64(count))) - count
	x.ensure(base + count)
	return base
}

// ensure grows the spine until it covers IDs [0, n), allocating exactly
// the chunks that takes. The new chunks are filled in before the longer
// spine is published, so readers never see a partially built table.
func (x *jobIndex) ensure(n int) {
	need := (n + indexChunkSize - 1) >> indexChunkBits
	if sp := x.spine.Load(); sp != nil && len(*sp) >= need {
		return
	}
	x.growMu.Lock()
	defer x.growMu.Unlock()
	var cur []*indexChunk
	if sp := x.spine.Load(); sp != nil {
		cur = *sp
	}
	if len(cur) >= need {
		return
	}
	// The spine's pointer array grows geometrically, so a steady
	// allocator copies it O(log n) times, not once per chunk. Chunks are
	// appended past the published length only, where no reader looks.
	grown := cur
	if cap(grown) < need {
		grown = make([]*indexChunk, len(cur), max(need, 2*cap(cur)))
		copy(grown, cur)
	}
	for len(grown) < need {
		grown = append(grown, new(indexChunk))
	}
	x.spine.Store(&grown)
}

// chunks returns the current spine. The caller must only index chunks
// covering IDs it knows are allocated (alloc's ensure ran first).
func (x *jobIndex) chunks() []*indexChunk {
	return *x.spine.Load()
}

// set publishes a freshly allocated ID's location. Call exactly once
// per ID, by the producer that allocated it, after alloc returned.
func (x *jobIndex) set(gid, shard, local int) {
	sp := x.chunks()
	sp[gid>>indexChunkBits].entries[gid&indexChunkMask].Store(packRef(shard, local))
}

// repoint rewrites an existing entry when a migration re-homes the job,
// under its chunk's stripe lock. Readers stay lock-free.
func (x *jobIndex) repoint(gid, shard, local int) {
	ci := gid >> indexChunkBits
	mu := &x.repointMu[ci%repointStripes]
	mu.Lock()
	x.chunks()[ci].entries[gid&indexChunkMask].Store(packRef(shard, local))
	mu.Unlock()
}

// lookup resolves a global ID with three atomic loads and no locks.
// ok is false for IDs the allocator never issued. pending is true for
// issued IDs whose entry has not been published yet (mid-batch window;
// the job is accepted, report it queued).
func (x *jobIndex) lookup(gid int) (shard, local int, pending, ok bool) {
	if gid < 0 || int64(gid) >= x.next.Load() {
		return 0, 0, false, false
	}
	sp := x.spine.Load()
	ci := gid >> indexChunkBits
	if sp == nil || ci >= len(*sp) {
		// Allocated, but the covering chunk is not published yet: the
		// producer is between alloc and ensure's store becoming visible.
		return 0, 0, true, true
	}
	p := (*sp)[ci].entries[gid&indexChunkMask].Load()
	if p == 0 {
		return 0, 0, true, true
	}
	shard, local = unpackRef(p)
	return shard, local, false, true
}

// owners returns the global ID of each job stolen from shard: gids[i]
// is the ID whose entry reads (shard, jobs[i].Local). It scans the table
// backward from the newest ID. A steal takes the youngest of its
// shard's backlog, so the scan ends after roughly the jobs admitted
// cluster-wide since the oldest stolen one — no per-job reverse table
// is kept on the admission path for it. Every job a runtime holds was
// published before its slab reached the runtime, so an entry that
// cannot be found is a broken invariant.
func (x *jobIndex) owners(shard int, jobs []live.StolenJob) []int {
	want := make(map[int]int, len(jobs)) // local ID → position in jobs
	for i, j := range jobs {
		want[j.Local] = i
	}
	gids := make([]int, len(jobs))
	for gid := x.count() - 1; gid >= 0 && len(want) > 0; gid-- {
		s, local, pending, _ := x.lookup(gid)
		if i, ok := want[local]; ok && !pending && s == shard {
			gids[i] = gid
			delete(want, local)
		}
	}
	for local := range want {
		panic(fmt.Sprintf("cluster: job %d stolen from shard %d has no global ID", local, shard))
	}
	return gids
}
