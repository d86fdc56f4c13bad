package cluster

// Firehose intake: the pure-throughput admission path. Producers never
// touch a shard runtime directly — they place a whole batch under the
// router's submission lock, then append the specs to per-shard
// MPSC queues built from pooled slabs under per-shard intake locks
// (appendRun), and return. Producers whose batches land on disjoint
// shards only meet at the placement decision; the append stage runs in
// parallel. One in-world drain source per shard moves the queued slabs
// into its runtime with a single lock acquisition per slab
// (live.Source.SubmitSpecs), so the virtual-clock kernel absorbs an
// arbitrarily large backlog in one wake.
//
// The intake preserves the router's global-ID contract without any
// feedback channel: in firehose mode each drain source is its shard's
// ONLY submitter, so a shard's runtime-local job IDs are exactly the
// per-shard enqueue order. appendRun reserves each shard's next local
// IDs and appends the batch's specs under one hold of that shard's
// lock, so queue order is local-ID order by construction, and the
// drain loop asserts the prediction against the base ID the runtime
// actually assigned. This is also why firehose mode excludes migration
// and in-world sources: any other submitter would desynchronize the
// prediction.
//
// Backpressure is a bounded total queue depth: a producer whose batch
// finds the intake full blocks (before taking the router lock) until
// drains free room or Drain begins. The bound is soft by one batch —
// a reserve admits the whole batch once depth drops below the bound —
// so producers of any batch size make progress.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/live"
)

// FirehoseConfig enables the batched intake path on a cluster.
type FirehoseConfig struct {
	// QueueDepth bounds the total number of enqueued-but-not-yet-admitted
	// jobs across all shards; producers block when it is reached
	// (backpressure). 0 means 65536.
	QueueDepth int
	// SlabSize is the number of jobs per pooled admission slab; 0 means
	// 512. A drained slab is one runtime critical section.
	SlabSize int
}

const (
	defaultFirehoseDepth = 65536
	defaultSlabSize      = 512
	// drainPoll is the drain source's re-check cadence, in model seconds,
	// while its shard still has outstanding work (when the shard is idle
	// the source parks on a wake channel instead and costs nothing).
	drainPoll = 0.01
	// admitWindow bounds each shard runtime's outstanding population: the
	// drain source stops admitting slabs while the shard holds this many
	// uncompleted jobs, keeping the bulk backlog in O(1)-append intake
	// slabs instead of the master's ledgers. The scheduler's per-dispatch
	// work grows with the in-runtime queue (LS folds each slave's assigned
	// backlog), so unbounded admission turns a million-job ingest
	// quadratic; the window keeps per-job cost flat.
	admitWindow = 1024
	// slabPoolCap bounds the recycled-slab stack; beyond it slabs are
	// dropped to the GC (the pool only needs to cover queue depth).
	slabPoolCap = 64
)

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

	// emu is the shard's intake lock: appendRun holds it while reserving
	// the shard's next runtime-local IDs (nextLocal) and appending one
	// batch's specs, which is exactly what keeps queue order equal to
	// local-ID order under concurrent producers. It is distinct from mu
	// so the drain source's takeInto never waits behind a producer
	// filling slabs.
	emu       sync.Mutex
	nextLocal int
}

// intake is the cluster-wide firehose state.
type intake struct {
	bound    int
	slabSize int

	// qmu guards the total depth and the closed flag; qcond wakes
	// producers blocked on the bound.
	qmu    sync.Mutex
	qcond  *sync.Cond
	queued int
	closed bool

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

func newIntake(cfg FirehoseConfig, shards int) *intake {
	fh := &intake{
		bound:    cfg.QueueDepth,
		slabSize: cfg.SlabSize,
		shards:   make([]fhShard, shards),
	}
	if fh.bound <= 0 {
		fh.bound = defaultFirehoseDepth
	}
	if fh.slabSize <= 0 {
		fh.slabSize = defaultSlabSize
	}
	fh.qcond = sync.NewCond(&fh.qmu)
	for i := range fh.shards {
		fh.shards[i].notify = make(chan struct{}, 1)
	}
	return fh
}

// reserve blocks until the intake has room for a count-job batch (depth
// below the bound; the batch itself may overshoot it) and accounts for
// it. Returns ErrDraining once the intake has closed.
func (fh *intake) reserve(count int) error {
	fh.qmu.Lock()
	defer fh.qmu.Unlock()
	for !fh.closed && fh.queued >= fh.bound {
		fh.qcond.Wait()
	}
	if fh.closed {
		return ErrDraining
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

// close stops admission and wakes everything: blocked producers return
// ErrDraining, parked drain sources wake to find the closed flag, drain
// their remaining slabs and end their runtimes. The caller must
// guarantee no enqueue is in flight (the router does: close happens
// after the draining flag flips under the router lock that every
// enqueue holds).
func (fh *intake) close() {
	fh.qmu.Lock()
	if fh.closed {
		fh.qmu.Unlock()
		return
	}
	fh.closed = true
	fh.qcond.Broadcast()
	fh.qmu.Unlock()
	for i := range fh.shards {
		close(fh.shards[i].notify)
	}
}

func (fh *intake) isClosed() bool {
	fh.qmu.Lock()
	defer fh.qmu.Unlock()
	return fh.closed
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
	return make([]live.JobSpec, 0, fh.slabSize)
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

// appendRun admits one batch's slice for a single shard: under one hold
// of the shard's intake lock it reserves the shard's next n
// runtime-local IDs and appends the batch's n specs for that shard
// (those with out[i] == s, in batch order) to the shard queue, flushing
// a slab per slabSize jobs and the partial remainder at the end (so the
// drain source always sees whole batches). Returns the reserved local
// base. The reserve and the append sharing one critical section is the
// sole-submitter invariant's load-bearing wall: whatever order
// concurrent producers reach a shard, each batch's specs land in the
// queue in exactly the order its local IDs were reserved.
func (fh *intake) appendRun(s, n int, out []int, specs []live.JobSpec, spec live.JobSpec) int {
	sq := &fh.shards[s]
	sq.emu.Lock()
	base := sq.nextLocal
	sq.nextLocal += n
	var cur []live.JobSpec
	for i, sh := range out {
		if sh != s {
			continue
		}
		if cur == nil {
			cur = fh.getSlab()
		}
		sp := spec
		if specs != nil {
			sp = specs[i]
		}
		cur = append(cur, sp)
		if len(cur) >= fh.slabSize {
			fh.flush(s, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		fh.flush(s, cur)
	}
	sq.emu.Unlock()
	return base
}

// flush appends one filled slab to the shard queue and wakes its drain
// source. Caller holds the shard's intake lock; flush-vs-close ordering
// is the router's enqueues WaitGroup (every registered batch's flushes
// complete before Drain closes the intake).
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
// installing buf (an empty recycled slice) as the new queue.
func (sq *fhShard) takeInto(buf [][]live.JobSpec) [][]live.JobSpec {
	sq.mu.Lock()
	out := sq.slabs
	sq.slabs = buf
	sq.mu.Unlock()
	return out
}

// drainLoop is the shard's in-world drain source: the sole submitter to
// its runtime. It moves queued slabs into the runtime (one critical
// section per slab), parks on the wake channel while its shard is
// fully idle, polls on the model clock while work is still in flight,
// and — once the intake closes and empties — drains the runtime from
// inside the world (the only legal drain on a virtual clock).
//
// Blocking a virtual-world actor on a plain Go channel deliberately
// stalls the kernel: every other proc is in a kernel-visible blocked
// state, so the world simply waits for the external wake — exactly the
// semantics a serving ingest needs.
func (fh *intake) drainLoop(r *Router, shard int, src *live.Source) {
	sq := &fh.shards[shard]
	rt := r.shards[shard].rt
	expected := 0 // next runtime-local ID, mirrored by fhShard.nextLocal
	spare := make([][]live.JobSpec, 0, 8)
	// submitAll admits every taken slab, one runtime critical section
	// each, and recycles the containers. Before each slab it waits out
	// the admission window: while the runtime already holds window
	// outstanding jobs, the source sleeps on the model clock (the world
	// keeps completing work) instead of growing the master's ledgers —
	// the backlog stays in the intake where appends are O(1).
	submitAll := func(slabs [][]live.JobSpec) {
		for i, slab := range slabs {
			// The wait backs off exponentially: a fixed cadence would pay
			// O(window/poll) yields per refill, and on a virtual clock
			// those yields are the dominant kernel cost at millions of
			// jobs. Backoff makes each window refill O(log) yields at the
			// price of slightly lumpier admission timestamps.
			wait := drainPoll
			for rt.Load().Outstanding() >= admitWindow {
				src.Sleep(wait)
				if wait < drainPoll*1024 {
					wait *= 2
				}
			}
			base := src.SubmitSpecs(slab)
			if base != expected {
				panic(fmt.Sprintf("cluster: firehose shard %d drained local base %d, predicted %d (foreign submitter?)", shard, base, expected))
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
		if fh.isClosed() {
			// Every flush happens-before close, so one more take performed
			// after observing the closed flag sees every remaining slab
			// (the empty take above may have raced the final flush).
			if slabs := sq.takeInto(spare[:0]); len(slabs) > 0 {
				submitAll(slabs)
			}
			src.Drain()
			return
		}
		if rt.Load().Outstanding() == 0 {
			<-sq.notify
			continue
		}
		src.Sleep(drainPoll)
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

// FirehoseStats snapshots the intake's backpressure state; ok is false
// when the cluster is not in firehose mode.
func (r *Router) FirehoseStats() (FirehoseStats, bool) {
	if r.fh == nil {
		return FirehoseStats{}, false
	}
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
	return fs, true
}

// FirehoseDepth returns the intake's total queued job count (0 outside
// firehose mode) — an allocation-free gauge reader.
func (r *Router) FirehoseDepth() int {
	if r.fh == nil {
		return 0
	}
	return r.fh.depth()
}
