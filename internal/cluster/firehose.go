package cluster

// The intake: the one way an external job reaches a shard runtime, on
// either clock. Producers never touch a runtime — they place a whole
// batch under the router's submission lock, then append the specs to
// per-shard MPSC queues built from pooled slabs under per-shard intake
// locks (appendRun), and return. Producers whose batches land on
// disjoint shards only meet at the placement decision; the append stage
// runs in parallel. One in-world drain source per shard moves the
// queued slabs into its runtime with a single lock acquisition per slab
// (live.Source.SubmitSpecs), so a virtual-clock kernel absorbs an
// arbitrarily large backlog in one wake. How the drain waits is the
// substrate's business (live.Source.Await): a real-clock drain blocks
// on its queue's notify and admits at once, a virtual one polls the
// model clock while its shard has work and keeps an admission window.
//
// The intake preserves the router's global-ID contract without any
// feedback channel: each drain source is its shard's ONLY submitter, so
// a shard's runtime-local job IDs are exactly the per-shard enqueue
// order. appendRun and readmit reserve each shard's next local IDs,
// publish them in the global index and append the specs under one hold
// of that shard's lock, so queue order is local-ID order by
// construction, and the drain loop asserts the prediction against the
// base ID the runtime actually assigned. A migration's re-admission is
// just another producer here, which is what lets stealing and the
// prediction coexist. Publishing before the slab is flushed means a job
// is in the index before its runtime can hold it — hence before anyone
// can steal it.
//
// Backpressure is a bounded total queue depth: a producer whose batch
// finds the intake full blocks (before taking the router lock) until
// drains free room or Drain begins. The bound is soft by one batch —
// a reserve admits the whole batch once depth drops below the bound —
// so producers of any batch size make progress. Re-admitted stolen jobs
// count toward the depth but never wait on the bound: they were
// accepted long ago.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/live"
)

// FirehoseConfig sizes a cluster's intake.
type FirehoseConfig struct {
	// QueueDepth bounds the total number of enqueued-but-not-yet-admitted
	// jobs across all shards; producers block when it is reached
	// (backpressure). 0 means 65536.
	QueueDepth int
}

const (
	defaultFirehoseDepth = 65536
	// slabSize is the number of jobs per pooled admission slab. A drained
	// slab is one runtime critical section.
	slabSize = 512
	// drainPoll is a virtual-clock drain source's re-check cadence, in
	// model seconds, while its shard still has outstanding work (see
	// live.Source.Await).
	drainPoll = 0.01
	// admitWindow bounds each virtual-clock shard runtime's outstanding
	// population: the drain source stops admitting slabs while the shard
	// holds this many uncompleted jobs, keeping the bulk backlog in
	// O(1)-append intake slabs instead of the master's ledgers. The
	// scheduler's per-dispatch work grows with the in-runtime queue (LS
	// folds each slave's assigned backlog), so unbounded admission turns a
	// million-job ingest quadratic; the window keeps per-job cost flat.
	admitWindow = 1024
	// slabPoolCap bounds the recycled-slab stack; beyond it slabs are
	// dropped to the GC (the pool only needs to cover queue depth).
	slabPoolCap = 64
)

// errSourced is what every submission to a cluster built with Sources
// gets: its jobs come from the sources alone, so its intake is closed
// from the start.
var errSourced = errors.New("cluster: a cluster built with sources admits jobs from its sources only")

// fhShard is one shard's MPSC queue: producers append filled slabs
// under the shard mutex; the shard's drain source swaps the whole slice
// out in one acquisition.
type fhShard struct {
	mu    sync.Mutex
	slabs [][]live.JobSpec
	// notify wakes a parked drain source; closed when the intake closes.
	notify chan struct{}
	// queued counts this shard's enqueued-but-not-yet-admitted jobs. It
	// is added to the shard's Load at placement time so load-sensitive
	// policies see the intake backlog they themselves created.
	queued atomic.Int64

	// emu is the shard's intake lock: appendRun and readmit hold it while
	// reserving the shard's next runtime-local IDs (nextLocal), publishing
	// them and appending the specs, which is exactly what keeps queue
	// order equal to local-ID order under concurrent producers. It is
	// distinct from mu so the drain source's takeInto never waits behind a
	// producer filling slabs.
	emu       sync.Mutex
	nextLocal int
}

// intake is the cluster-wide admission state.
type intake struct {
	bound int

	// qmu guards the total depth and the closed state; qcond wakes
	// producers blocked on the bound. err is what reserve answers once
	// closed. closed only changes under qmu, but it is atomic so the
	// drain sources' empty polls read it without the lock.
	qmu    sync.Mutex
	qcond  *sync.Cond
	queued int
	closed atomic.Bool
	err    error

	// pmu guards the recycled-slab stack; the counters alongside it make
	// the pool's effectiveness observable (poolGets checkouts, of which
	// poolHits came recycled; poolDrops slabs fell to the GC because the
	// stack was full).
	pmu       sync.Mutex
	pool      [][]live.JobSpec
	poolGets  atomic.Int64
	poolHits  atomic.Int64
	poolDrops atomic.Int64

	shards []fhShard
}

// newIntake builds the intake for a k-shard cluster; a nil cfg takes
// the defaults.
func newIntake(cfg *FirehoseConfig, shards int) *intake {
	fh := &intake{bound: defaultFirehoseDepth, shards: make([]fhShard, shards)}
	if cfg != nil && cfg.QueueDepth > 0 {
		fh.bound = cfg.QueueDepth
	}
	fh.qcond = sync.NewCond(&fh.qmu)
	for i := range fh.shards {
		fh.shards[i].notify = make(chan struct{}, 1)
	}
	return fh
}

// reserve blocks until the intake has room for a count-job batch (depth
// below the bound; the batch itself may overshoot it) and accounts for
// it. Once the intake has closed it returns the closing error.
func (fh *intake) reserve(count int) error {
	fh.qmu.Lock()
	defer fh.qmu.Unlock()
	for !fh.closed.Load() && fh.queued >= fh.bound {
		fh.qcond.Wait()
	}
	if fh.closed.Load() {
		return fh.err
	}
	fh.queued += count
	return nil
}

// release returns n drained (or never-enqueued) jobs' worth of depth
// and wakes blocked producers.
func (fh *intake) release(n int) {
	fh.qmu.Lock()
	fh.queued -= n
	if fh.queued < fh.bound {
		fh.qcond.Broadcast()
	}
	fh.qmu.Unlock()
}

// depth returns the current total enqueued-but-not-admitted job count.
func (fh *intake) depth() int {
	fh.qmu.Lock()
	defer fh.qmu.Unlock()
	return fh.queued
}

// close stops admission with err and wakes everything: blocked
// producers return err, parked drain sources wake to find the closed
// flag, drain their remaining slabs and end their runtimes. Closing
// again is a no-op. The caller must guarantee no enqueue is in flight
// (the router does: close happens after the draining flag flips under
// the router lock that every enqueue registers under).
func (fh *intake) close(err error) {
	fh.qmu.Lock()
	if fh.closed.Load() {
		fh.qmu.Unlock()
		return
	}
	fh.err = err
	fh.closed.Store(true)
	fh.qcond.Broadcast()
	fh.qmu.Unlock()
	for i := range fh.shards {
		close(fh.shards[i].notify)
	}
}

// getSlab pops a recycled slab or allocates a fresh one.
func (fh *intake) getSlab() []live.JobSpec {
	fh.poolGets.Add(1)
	fh.pmu.Lock()
	if n := len(fh.pool); n > 0 {
		s := fh.pool[n-1]
		fh.pool[n-1] = nil
		fh.pool = fh.pool[:n-1]
		fh.pmu.Unlock()
		fh.poolHits.Add(1)
		return s[:0]
	}
	fh.pmu.Unlock()
	return make([]live.JobSpec, 0, slabSize)
}

// putSlab recycles a drained slab, dropping it once the pool is full.
func (fh *intake) putSlab(s []live.JobSpec) {
	fh.pmu.Lock()
	if len(fh.pool) < slabPoolCap {
		fh.pool = append(fh.pool, s)
		fh.pmu.Unlock()
		return
	}
	fh.pmu.Unlock()
	fh.poolDrops.Add(1)
}

// appendRun admits one batch's slice for shard s: under one hold of the
// shard's intake lock, each job of the batch placed there (out[i] == s,
// in batch order) takes the shard's next runtime-local ID, has global
// ID base+i published at that location, and is appended to the shard
// queue with its own run's spec. The reserve, the publication and the
// append sharing one critical section is the sole-submitter invariant's
// load-bearing wall: whatever order concurrent producers reach a shard,
// each batch's specs land in the queue in exactly the order their local
// IDs were reserved.
func (fh *intake) appendRun(s int, out []int, runs []Run, idx *jobIndex, base int) {
	sq := &fh.shards[s]
	sq.emu.Lock()
	var cur []live.JobSpec
	i := 0
	for _, run := range runs {
		for end := i + max(run.Count, 0); i < end; i++ {
			if out[i] == s {
				idx.set(base+i, s, sq.nextLocal)
				sq.nextLocal++
				cur = fh.push(s, cur, run.Spec)
			}
		}
	}
	fh.flushRest(s, cur)
	sq.emu.Unlock()
}

// readmit re-admits jobs stolen from another shard on shard s, oldest
// first (StealPending returns them newest first), re-pointing each
// one's global ID gids[i] at its new location. Like appendRun it
// reserves, publishes and appends under one hold of the shard's intake
// lock; the jobs' depth is accounted without waiting on the bound.
func (fh *intake) readmit(s int, jobs []live.StolenJob, gids []int, idx *jobIndex) {
	fh.qmu.Lock()
	fh.queued += len(jobs)
	fh.qmu.Unlock()
	sq := &fh.shards[s]
	sq.emu.Lock()
	var cur []live.JobSpec
	for i := len(jobs) - 1; i >= 0; i-- {
		idx.repoint(gids[i], s, sq.nextLocal)
		sq.nextLocal++
		cur = fh.push(s, cur, jobs[i].Spec)
	}
	fh.flushRest(s, cur)
	sq.emu.Unlock()
}

// push appends one spec to the slab being filled for shard s (nil: none
// yet), flushing it once full. Caller holds the shard's intake lock.
func (fh *intake) push(s int, cur []live.JobSpec, spec live.JobSpec) []live.JobSpec {
	if cur == nil {
		cur = fh.getSlab()
	}
	cur = append(cur, spec)
	if len(cur) == slabSize {
		fh.flush(s, cur)
		return nil
	}
	return cur
}

// flushRest flushes a partly filled slab, so the drain source always
// sees whole batches. Caller holds the shard's intake lock.
func (fh *intake) flushRest(s int, cur []live.JobSpec) {
	if len(cur) > 0 {
		fh.flush(s, cur)
	}
}

// flush appends one filled slab to the shard queue and wakes its drain
// source. Caller holds the shard's intake lock; flush-vs-close ordering
// is the router's (every registered batch and migration flushes before
// Drain closes the intake).
func (fh *intake) flush(shard int, slab []live.JobSpec) {
	sq := &fh.shards[shard]
	sq.mu.Lock()
	sq.slabs = append(sq.slabs, slab)
	sq.mu.Unlock()
	sq.queued.Add(int64(len(slab)))
	select {
	case sq.notify <- struct{}{}:
	default:
	}
}

// takeInto swaps the shard's queued slabs out in one lock acquisition,
// installing buf (an empty recycled slice) as the new queue. An empty
// queue — queued reads 0 — returns buf at once without the lock. That
// read can miss a slab whose flush has appended it but not yet counted
// it, but no wake-up is lost: flush counts the slab (queued.Add) before
// its notify send, so the drain source either sees the count on this
// poll or finds the notify token when it next waits, and polls again.
func (sq *fhShard) takeInto(buf [][]live.JobSpec) [][]live.JobSpec {
	if sq.queued.Load() == 0 {
		return buf
	}
	sq.mu.Lock()
	out := sq.slabs
	sq.slabs = buf
	sq.mu.Unlock()
	return out
}

// drainLoop is the shard's in-world drain source: the sole submitter to
// its runtime. It moves queued slabs into the runtime (one critical
// section per slab, each after src.Await lets it past the admission
// window), waits through src.Await while its queue is empty, and — once
// the intake closes and empties — drains the runtime from inside the
// world (the only legal drain on a virtual clock).
func (fh *intake) drainLoop(shard int, src *live.Source) {
	sq := &fh.shards[shard]
	expected := 0 // next runtime-local ID, mirrored by fhShard.nextLocal
	spare := make([][]live.JobSpec, 0, 8)
	// submitAll admits every taken slab and recycles the containers.
	submitAll := func(slabs [][]live.JobSpec) {
		for i, slab := range slabs {
			src.Await(sq.notify, admitWindow, drainPoll)
			base := src.SubmitSpecs(slab)
			if base != expected {
				panic(fmt.Sprintf("cluster: intake shard %d drained local base %d, predicted %d (foreign submitter?)", shard, base, expected))
			}
			expected += len(slab)
			sq.queued.Add(int64(-len(slab)))
			fh.release(len(slab))
			fh.putSlab(slab)
			slabs[i] = nil
		}
		spare = slabs
	}
	for {
		slabs := sq.takeInto(spare[:0])
		if len(slabs) > 0 {
			submitAll(slabs)
			continue
		}
		spare = slabs
		if fh.closed.Load() {
			// Every flush — its append and its queued.Add — happens-before
			// close stores the flag, so one more take performed after
			// observing the flag sees every remaining slab counted in
			// queued and takes it (the empty take above may have raced the
			// final flush).
			if slabs := sq.takeInto(spare[:0]); len(slabs) > 0 {
				submitAll(slabs)
			}
			src.Drain()
			return
		}
		src.Await(sq.notify, 0, drainPoll)
	}
}

// FirehoseStats is a point-in-time snapshot of the intake's
// backpressure state, exposed through /v1/stats and /v1/metrics: how
// much backlog producers have parked in the queues, and how the slab
// pool is holding up (drops were previously silent).
type FirehoseStats struct {
	// QueueBound is the configured depth bound producers block on.
	QueueBound int
	// Queued is the total enqueued-but-not-yet-admitted job count.
	Queued int
	// ShardQueued is Queued broken down by shard.
	ShardQueued []int64
	// SlabGets counts slab checkouts; SlabHits of them were served from
	// the recycle pool; SlabDrops counts drained slabs discarded because
	// the pool was full.
	SlabGets  int64
	SlabHits  int64
	SlabDrops int64
}

// FirehoseStats snapshots the intake's backpressure state.
func (r *Router) FirehoseStats() FirehoseStats {
	fs := FirehoseStats{
		QueueBound:  r.fh.bound,
		Queued:      r.fh.depth(),
		ShardQueued: make([]int64, len(r.fh.shards)),
		SlabGets:    r.fh.poolGets.Load(),
		SlabHits:    r.fh.poolHits.Load(),
		SlabDrops:   r.fh.poolDrops.Load(),
	}
	for i := range r.fh.shards {
		fs.ShardQueued[i] = r.fh.shards[i].queued.Load()
	}
	return fs
}

// FirehoseDepth returns the intake's total queued job count — an
// allocation-free gauge reader.
func (r *Router) FirehoseDepth() int {
	return r.fh.depth()
}
