// Package cluster is the sharded multi-master serving layer: a fleet of
// live runtimes (shards), each owning a partition of the platform's
// slaves and running its own scheduling policy behind its own one-port
// master, fronted by a Router that places every incoming job on a shard
// via a pluggable Placement policy.
//
// The paper's one-port master is a structural serial bottleneck — a
// single master transmits at most one task per link-time, no matter how
// many slaves it owns. Sharding multiplies the port: k masters serve k
// disjoint slave sets concurrently, so ingest throughput on port-bound
// platforms scales near-linearly with k. The cost is scheduling myopia:
// each master optimizes its slice in isolation, which
// experiment.ShardingStudy quantifies against the monolithic scheduler.
//
// Every external job reaches its shard's runtime the same way, on
// either clock: placed under the router's lock, appended to the shard's
// intake queue, admitted by the shard's in-world drain source (see
// firehose.go). With Shards = 1 and in-world sources instead of the
// intake the cluster is exactly the single-runtime stack of
// internal/live, and the conformance suite in this package pins that
// such a one-shard cluster on the virtual clock reproduces the
// discrete-event engine's schedules bit for bit, extending the PR-3
// contract through the new layer.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ErrDraining is returned by SubmitRuns (and SubmitRange) once Drain has
// begun.
var ErrDraining = errors.New("cluster: draining; no new jobs accepted")

// Config describes one sharded cluster.
type Config struct {
	// Platform is the full platform; it is partitioned across shards.
	// Required.
	Platform core.Platform
	// NewScheduler constructs one scheduler instance per shard
	// (schedulers are stateful and must not be shared). Required.
	NewScheduler func() sim.Scheduler
	// Shards is the number of masters; 0 means 1. Must not exceed the
	// number of slaves.
	Shards int
	// Partition selects how slaves are split across shards; empty means
	// striped.
	Partition core.PartitionStrategy
	// Placement names the routing policy; empty means round-robin.
	Placement string
	// World builds each shard's execution substrate; nil means real time
	// at speedup 1 for every shard.
	World func(shard int) live.World
	// Sources are in-world job producers, only meaningful for
	// single-shard clusters (the conformance suite uses this). A cluster
	// built with sources has no intake: its jobs come from the sources
	// alone and SubmitRuns refuses every batch. Configuring sources with
	// more than one shard is an error: in-world submissions bypass the
	// router.
	Sources []func(*live.Source)
	// AuditDepth bounds the decision-audit ring: keep the newest
	// AuditDepth placement/steal/migration decisions (with the placement
	// policy's per-shard scores) for GET /v1/decisions. 0 — the default —
	// disables auditing entirely: no ring, no score computation, no
	// timestamps on the ingest path (BenchmarkAuditedAdmission prices
	// the difference).
	AuditDepth int
	// EventLogCap is ignored, like live.Config.EventLogCap.
	//
	// Deprecated: ignored. bench/ still sets it; the benchmark's second
	// edition (ROADMAP.md) drops that use and then deletes the field.
	EventLogCap int
	// Observer, when set, is called with every lifecycle event from every
	// shard (shard-local ID and slave index), after the shard's tracker
	// has applied it. It runs inside the shard's master actor: it must be
	// fast, non-blocking, and must not call back into the cluster beyond
	// reading the shard's Tracker. The flight recorder and /v1/watch
	// stream tap in here.
	Observer func(shard int, ev live.Event)
	// Firehose sizes the intake every external job crosses (see
	// firehose.go); nil means the defaults. Mutually exclusive with
	// Sources, whose clusters have no intake to size.
	Firehose *FirehoseConfig
}

// Shard is one master–slave runtime owning a slice of the platform.
type Shard struct {
	index  int
	slaves []int // global slave indices, increasing
	pl     core.Platform
	rt     *live.Runtime
	// nominalRate is the shard's throughput estimate from its cost
	// vectors (tasks per model second), precomputed for het-aware
	// placement; see NominalRate.
	nominalRate float64

	// Declarative slave liveness, fed by Router.SetSlaveLive from
	// whatever failure detector the deployment runs (or a scenario
	// timeline in tests). liveCount is read lock-free on the placement
	// hot path; the bool slice is only touched under liveMu.
	liveCount atomic.Int32
	liveMu    sync.Mutex
	deadLocal []bool
}

// Index returns the shard's position in the cluster.
func (s *Shard) Index() int { return s.index }

// Slaves returns the global indices of the slaves this shard owns. The
// slice is shared; treat it as read-only.
func (s *Shard) Slaves() []int { return s.slaves }

// GlobalSlave maps a shard-local slave index to the platform-global one.
func (s *Shard) GlobalSlave(local int) int { return s.slaves[local] }

// Platform returns the shard's slice of the platform (local indexing).
// The value shares cost slices with the shard; treat it as read-only.
func (s *Shard) Platform() core.Platform { return s.pl }

// Runtime returns the shard's live runtime.
func (s *Shard) Runtime() *live.Runtime { return s.rt }

// Tracker returns the shard's job-state store, its runtime's tracker
// (shard-local job IDs and slave indices).
func (s *Shard) Tracker() *live.Tracker { return s.rt.Tracker() }

// Load returns the shard's progress snapshot.
func (s *Shard) Load() live.Load { return s.rt.Load() }

// LiveSlaves returns the number of slaves not currently declared down.
// Every slave starts live; Router.SetSlaveLive changes the declaration.
func (s *Shard) LiveSlaves() int { return int(s.liveCount.Load()) }

// setSlaveLive flips one local slave's liveness declaration.
// Idempotent: re-declaring the current state is a no-op, so a noisy
// failure detector cannot drive the count negative or past m.
func (s *Shard) setSlaveLive(local int, up bool) {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	if local < 0 || local >= len(s.deadLocal) {
		return
	}
	switch {
	case up && s.deadLocal[local]:
		s.deadLocal[local] = false
		s.liveCount.Add(1)
	case !up && !s.deadLocal[local]:
		s.deadLocal[local] = true
		s.liveCount.Add(-1)
	}
}

// Result returns the shard's completed run. Call only after the cluster
// has drained.
func (s *Shard) Result() live.Result { return s.rt.Result() }

// Router is a running sharded cluster: the shards plus the placement
// state and the global job-ID table. The table (idx) is lock-free for
// readers — Job, ShardOf and Jobs never take a mutex. Every submission
// serializes its routing decision on the one lock mu, which covers
// nothing but that decision: the rest fans out over per-shard intake
// locks, so concurrent producers targeting different shards only meet
// at placement. The per-shard runtimes do their own (finer-grained)
// locking.
type Router struct {
	shards    []*Shard
	placement Placement
	partition core.PartitionStrategy

	// idx is the chunked, atomically published global job table
	// (index.go): gid → (shard, runtime-local ID), plus the global-ID
	// allocator. Reads are lock-free.
	idx jobIndex
	// draining flips once under mu; readers load it lock-free.
	draining atomic.Bool

	// mu is the submission lock. It guards the placement policy's state
	// and the three fields below.
	mu sync.Mutex
	// loads is the load snapshot placement scores against and loadsLeft
	// the jobs it still covers before the next refresh (see refreshLoads).
	loads     []live.Load
	loadsLeft int
	// scoreBuf is the audit's per-batch score buffer (nil without
	// auditing, so unaudited ingest computes no scores).
	scoreBuf []float64

	// migrations counts in-flight Migrate calls. A migration registers
	// itself under mu while not draining; Drain flips the flag and then
	// waits the group out before closing the intake, so every stolen job
	// has been re-queued (and its ref updated) before any master is told
	// to finish — no job can be stranded between shards.
	migrations sync.WaitGroup
	stolen     atomic.Int64 // total jobs migrated by Migrate

	// audit is the bounded decision ring (nil — recording a no-op —
	// unless Config.AuditDepth > 0).
	audit *obs.AuditRing
	// onMigrate, if set (before Start; see OnMigrate), observes each
	// successful migration's realized size and wall latency.
	onMigrate func(moved int, latencySeconds float64)

	// fh is the intake (firehose.go). enqueues counts batches between
	// their placement decision and their last slab flush; Drain waits it
	// out before closing the intake so the final take sees every slab.
	// The drivers run each shard's Wait so the worlds execute while
	// producers feed, and join collects them once.
	fh        *intake
	enqueues  sync.WaitGroup
	startOnce sync.Once
	joinOnce  sync.Once
	errs      chan error
	err       error
}

// batch is one submission's scratch: the placement vector and the
// per-shard counts that travel from the placement decision to the
// intake.
type batch struct {
	out    []int // placement per job, batch order
	counts []int // per shard: jobs this batch placed there
}

// batchPool recycles batch scratch — a submission carries it past the
// router lock — so the steady-state ingest path allocates nothing. It
// is shared by every router: getBatch resizes on checkout.
var batchPool = sync.Pool{New: func() any { return new(batch) }}

// getBatch checks out scratch for a count-job batch over k shards, with
// counts zeroed.
func getBatch(k, count int) *batch {
	b := batchPool.Get().(*batch)
	if cap(b.counts) < k {
		b.counts = make([]int, k)
	}
	b.counts = b.counts[:k]
	clear(b.counts)
	if cap(b.out) < count {
		b.out = make([]int, count)
	}
	b.out = b.out[:count]
	return b
}

// New partitions the platform, builds one live runtime per shard and
// assembles the router. Shards are not started; call Start (or let the
// first Wait do it).
func New(cfg Config) (*Router, error) {
	if cfg.NewScheduler == nil {
		return nil, fmt.Errorf("cluster: config needs a scheduler constructor")
	}
	k := cfg.Shards
	if k == 0 {
		k = 1
	}
	strategy := cfg.Partition
	if strategy == "" {
		strategy = core.PartitionStriped
	}
	placementName := cfg.Placement
	if placementName == "" {
		placementName = PlacementRoundRobin
	}
	placement, err := NewPlacement(placementName)
	if err != nil {
		return nil, err
	}
	if len(cfg.Sources) > 0 && k != 1 {
		return nil, fmt.Errorf("cluster: sources require a single shard (got %d): in-world submissions bypass the router", k)
	}
	if cfg.Firehose != nil && len(cfg.Sources) > 0 {
		return nil, fmt.Errorf("cluster: firehose and sources are mutually exclusive: a cluster built with sources has no intake")
	}
	parts, err := cfg.Platform.Partition(k, strategy)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	r := &Router{
		placement: placement,
		partition: strategy,
		loads:     make([]live.Load, k),
		fh:        newIntake(cfg.Firehose, k),
	}
	if len(cfg.Sources) > 0 {
		r.fh.close(errSourced)
	}
	if cfg.AuditDepth > 0 {
		r.audit = obs.NewAuditRing(cfg.AuditDepth, k)
		r.scoreBuf = make([]float64, k)
	}
	for i, part := range parts {
		lcfg := live.Config{
			Platform:  part.Platform,
			Scheduler: cfg.NewScheduler(),
		}
		if user := cfg.Observer; user != nil {
			shard := i
			lcfg.Observer = func(ev live.Event) { user(shard, ev) }
		}
		if cfg.World != nil {
			lcfg.World = cfg.World(i)
		}
		lcfg.Sources = cfg.Sources
		if len(cfg.Sources) == 0 {
			shard := i
			lcfg.Sources = []func(*live.Source){func(src *live.Source) {
				r.fh.drainLoop(shard, src)
			}}
		}
		rt, err := live.New(lcfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		sh := &Shard{
			index:       i,
			slaves:      part.Slaves,
			pl:          part.Platform,
			rt:          rt,
			nominalRate: NominalRate(part.Platform),
			deadLocal:   make([]bool, part.Platform.M()),
		}
		sh.liveCount.Store(int32(part.Platform.M()))
		r.shards = append(r.shards, sh)
	}
	return r, nil
}

// Start launches every shard's runtime and one driver goroutine per
// shard running the shard's Wait — a virtual world only executes inside
// Wait, so the drivers are what make the cluster serve while producers
// feed the intake. Drain joins them. Idempotent.
func (r *Router) Start() {
	r.startOnce.Do(func() {
		r.errs = make(chan error, len(r.shards))
		for _, s := range r.shards {
			s.rt.Start()
			go func(s *Shard) { r.errs <- s.rt.Wait() }(s)
		}
	})
}

// Shards returns the cluster's shards. The slice is shared; treat it as
// read-only.
func (r *Router) Shards() []*Shard { return r.shards }

// Placement returns the routing policy's name.
func (r *Router) Placement() string { return r.placement.Name() }

// Partition returns the partition strategy the cluster was built with.
func (r *Router) Partition() core.PartitionStrategy { return r.partition }

// Jobs returns the number of jobs routed so far. Lock-free: one atomic
// load of the global-ID allocator.
func (r *Router) Jobs() int {
	return r.idx.count()
}

// Run is one stretch of an admitted batch: Count consecutive jobs that
// share one Spec (a run with Count ≤ 0 places nothing).
type Run struct {
	Spec  live.JobSpec
	Count int
}

// SubmitRange places count identical jobs and returns the first global
// ID; the batch occupies the consecutive range [base, base+count). It is
// a batch of one run.
func (r *Router) SubmitRange(spec live.JobSpec, count int) (int, error) {
	return r.SubmitRuns([]Run{{Spec: spec, Count: count}})
}

// SubmitRuns places the runs as one batch of n = Σ Count jobs and
// returns the first global ID: the batch occupies the consecutive range
// [base, base+n), run i the stretch after runs 0..i-1, and every job
// keeps its own run's spec. Nothing per-job is allocated. It is the one
// admission path. The stages, in order:
//
//  1. reserve — block on the intake's depth bound, before any lock, so
//     backpressure never stalls lookups or other producers.
//  2. decide, under mu — the draining check, the load snapshot, one
//     PickBatch over all n jobs, the atomic global-ID range allocation
//     and one audited decision for the whole batch. Because every batch
//     allocates its ID range inside the critical section that ordered
//     its placement, ID order is exactly arrival order — the sequencer
//     contract the stream endpoint's acks rely on.
//  3. enqueue, after mu — one intake-lock hold per touched shard
//     reserves the shard's next runtime-local IDs, publishes the
//     batch's global table entries there and appends its specs to the
//     shard's queue (intake.appendRun); producers whose batches land on
//     disjoint shards run this stage in parallel. A concurrent Job
//     lookup between allocation and publication sees "queued", never
//     "unknown".
//
// Placement never reads a job's spec (a job's scales multiply its cost
// identically on every shard), so one decision serves runs of different
// specs; only the intake carries them.
func (r *Router) SubmitRuns(runs []Run) (int, error) {
	count := 0
	for _, run := range runs {
		count += max(run.Count, 0)
	}
	if count == 0 {
		return 0, nil
	}
	if err := r.fh.reserve(count); err != nil {
		return 0, err
	}
	b := getBatch(len(r.shards), count)
	defer batchPool.Put(b)

	r.mu.Lock()
	if r.draining.Load() {
		r.mu.Unlock()
		r.fh.release(count)
		return 0, ErrDraining
	}
	if r.loadsLeft <= 0 {
		r.refreshLoads()
	}
	r.loadsLeft -= count
	for j := range r.scoreBuf {
		r.scoreBuf[j] = math.NaN()
	}
	r.placement.PickBatch(r.shards, r.loads, b.counts, runs[0].Spec, count, b.out, r.scoreBuf)
	if b.out[0] < 0 || b.out[0] >= len(r.shards) {
		panic(fmt.Sprintf("cluster: placement %s picked shard %d of %d", r.placement.Name(), b.out[0], len(r.shards)))
	}
	base := r.idx.alloc(count)
	for s, n := range b.counts {
		// Keep the snapshot causal inside its window: later batches see
		// this batch's placements without re-reading loads.
		r.loads[s].Submitted += n
	}
	if r.audit != nil {
		r.audit.Record(obs.Decision{
			Wall:    time.Now().UnixNano(),
			Kind:    obs.DecisionPlace,
			Policy:  r.placement.Name(),
			Job:     base,
			From:    -1,
			To:      b.out[0],
			Planned: count,
			N:       count,
			Scores:  sanitizeScores(r.scoreBuf),
		})
	}
	// Registering under mu while not draining is what lets Drain wait out
	// every in-flight append before closing the intake.
	r.enqueues.Add(1)
	r.mu.Unlock()
	for s, n := range b.counts {
		if n > 0 {
			r.fh.appendRun(s, b.out, runs, &r.idx, base)
		}
	}
	r.enqueues.Done()
	return base, nil
}

// refreshLoads re-reads every shard's load, with its intake backlog
// folded in, into the snapshot placement scores against, and arms the
// snapshot for min(Σ Outstanding, slabSize) placements. Between
// refreshes placement scores against the snapshot plus its own
// accumulated decisions. The window is derived from the snapshot rather
// than from the clock: an idle cluster re-reads every batch (a single
// completion changes the ranking), a small population re-reads before
// placement has added as many jobs as it holds, and a busy one drifts
// by at most one slab from the runtimes' ground truth — which
// load-sensitive policies tolerate by design (they race completions
// either way). Caller holds r.mu.
func (r *Router) refreshLoads() {
	total := 0
	for i, s := range r.shards {
		// The intake is read before the runtime: a slab moving between them
		// is then counted twice rather than not at all.
		queued := int(r.fh.shards[i].queued.Load())
		r.loads[i] = s.rt.Load()
		r.loads[i].Submitted += queued
		total += r.loads[i].Outstanding()
	}
	r.loadsLeft = min(total, slabSize)
}

// sanitizeScores prepares a PickBatch score snapshot for the audit: nil
// when the policy ranked nothing (round-robin, pinned: the buffer is
// still all NaN sentinels), otherwise remaining NaN slots (shards the
// policy skipped as dead) become -1 — an impossible value for the
// non-negative real scores, and JSON-representable where NaN is not. The
// buffer is reused per batch; the audit ring copies it on Record.
func sanitizeScores(scores []float64) []float64 {
	ranked := false
	for _, v := range scores {
		if !math.IsNaN(v) {
			ranked = true
			break
		}
	}
	if !ranked {
		return nil
	}
	for i, v := range scores {
		if math.IsNaN(v) {
			scores[i] = -1
		}
	}
	return scores
}

// Audit returns the decision-audit ring, or nil when auditing is off.
func (r *Router) Audit() *obs.AuditRing { return r.audit }

// OnMigrate registers an observer for successful migrations (realized
// size and wall latency) — the serving layer's migration-latency
// histogram. Set it before Start; it must be fast and must not call
// back into the Router.
func (r *Router) OnMigrate(fn func(moved int, latencySeconds float64)) {
	r.onMigrate = fn
}

// Job returns a routed job's lifecycle with global identifiers: the ID
// is the global one and Slave (once dispatched) is the platform-global
// slave index. The lookup never takes a router lock: the global table
// resolves with atomic loads, so a million concurrent GET /v1/jobs/{id}
// readers cost the ingest path nothing.
func (r *Router) Job(gid int) (live.JobInfo, bool) {
	shard, local, pending, routed := r.idx.lookup(gid)
	if !routed {
		return live.JobInfo{}, false
	}
	if pending {
		// ID allocated, entry not yet published (its producer is between
		// placement and publication): the router's accept is the accept —
		// report the job queued, as a lookup a moment later would.
		return live.JobInfo{ID: gid, State: live.StateQueued, Slave: -1}, true
	}
	sh := r.shards[shard]
	info, ok := sh.Tracker().Job(local)
	if !ok {
		// Accepted but not yet observed by the shard's master (still in
		// the intake, or in the master's mailbox): report it queued rather
		// than unknown — the router's accept is the accept.
		return live.JobInfo{ID: gid, State: live.StateQueued, Slave: -1}, true
	}
	if info.State == live.StateStolen {
		// Mid-migration window: the source master has retracted the job
		// but Migrate has not yet re-pointed the ref at its new home.
		// The job is accepted and will be served — report it queued, the
		// same answer a lookup a moment later (through the updated ref)
		// would give.
		return live.JobInfo{ID: gid, State: live.StateQueued, Slave: -1}, true
	}
	info.ID = gid
	if info.Slave >= 0 {
		info.Slave = sh.GlobalSlave(info.Slave)
	}
	return info, true
}

// ShardOf returns which shard a global job ID was placed on. Lock-free.
// During the sub-microsecond window between a batch's ID allocation and
// its table publication the placement is not yet knowable and ShardOf
// reports false — callers that learned the ID from a submission return
// or ack never see that window (publication happens before the return).
func (r *Router) ShardOf(gid int) (int, bool) {
	shard, _, pending, routed := r.idx.lookup(gid)
	if !routed || pending {
		return 0, false
	}
	return shard, true
}

// Loads snapshots every shard's progress, indexed by shard.
func (r *Router) Loads() []live.Load {
	out := make([]live.Load, len(r.shards))
	for i, s := range r.shards {
		out[i] = s.rt.Load()
	}
	return out
}

// Pending returns the cluster-wide queue depth: accepted, undispatched
// jobs summed over shards, each shard's being what its runtime holds
// undispatched plus what still waits in its intake queue.
func (r *Router) Pending() int {
	total := 0
	for i, s := range r.shards {
		total += int(r.fh.shards[i].queued.Load()) + s.rt.Pending()
	}
	return total
}

// Draining reports whether Drain has begun. Lock-free.
func (r *Router) Draining() bool {
	return r.draining.Load()
}

// SetSlaveLive declares a platform-global slave up or down for
// placement and stealing. It is a declaration, not an enforcement: the
// shard's master keeps serving whatever it already holds (the paper's
// one-port master cannot recall an in-flight transfer), but placement
// stops targeting shards with no live slaves and the het-aware steal
// policy evacuates their queues. Returns false for an unknown slave.
func (r *Router) SetSlaveLive(global int, up bool) bool {
	for _, s := range r.shards {
		for local, g := range s.slaves {
			if g == global {
				s.setSlaveLive(local, up)
				return true
			}
		}
	}
	return false
}

// Stolen returns the total number of jobs migrated between shards.
func (r *Router) Stolen() int { return int(r.stolen.Load()) }

// Migrate steals up to n pending jobs from shard `from` and re-admits
// them on shard `to`, returning how many actually moved. The move is
// atomic from every observer's point of view:
//
//   - The source master retracts the jobs inside its own actor loop
//     (live.Runtime.StealPending), so a stolen job was never dispatched
//     at the source and can never be — no double-dispatch window. A
//     virtual-clock source refuses: its run admits no outside event.
//   - The jobs re-enter through the destination's intake like any
//     producer's (intake.readmit), so its drain source stays the
//     destination runtime's only submitter. Each job's global table
//     entry is re-pointed (under its chunk's write lock) before the job
//     can reach the destination runtime, so GET /v1/jobs/{id} resolves
//     to the old home, then to a "queued" placeholder while the source
//     tracker reports the job stolen and the intake holds it, then to
//     the new home — never to "unknown". Readers stay lock-free
//     throughout.
//   - Migration and Drain exclude each other through the migrations
//     WaitGroup: a migration only begins while not draining, and Drain
//     waits out in-flight migrations before it closes the intake, so a
//     stolen job is always re-queued before its new master is told to
//     finish.
//
// Jobs are re-admitted in their original submission order, so the
// destination's FIFO treats them no worse than it would have fresh
// arrivals.
func (r *Router) Migrate(from, to, n int) int {
	if from == to || n <= 0 ||
		from < 0 || from >= len(r.shards) || to < 0 || to >= len(r.shards) {
		return 0
	}
	r.mu.Lock()
	if r.draining.Load() {
		r.mu.Unlock()
		return 0
	}
	r.migrations.Add(1)
	r.mu.Unlock()
	defer r.migrations.Done()

	// The migration clock runs only when someone watches: latency spans
	// retraction through re-homing, dominated by the source master's
	// round-trip.
	var begin time.Time
	observed := r.audit != nil || r.onMigrate != nil
	if observed {
		begin = time.Now()
	}

	// Outside the router lock: StealPending blocks on the source master's
	// reply, and submissions must keep flowing while it does.
	jobs := r.shards[from].rt.StealPending(n)
	if len(jobs) == 0 {
		return 0
	}
	r.fh.readmit(to, jobs, r.idx.owners(from, jobs), &r.idx)
	r.stolen.Add(int64(len(jobs)))
	if observed {
		latency := time.Since(begin).Seconds()
		r.audit.Record(obs.Decision{
			Wall:           begin.UnixNano(),
			Kind:           obs.DecisionMigrate,
			Job:            -1,
			From:           from,
			To:             to,
			Planned:        n,
			N:              len(jobs),
			LatencySeconds: latency,
		})
		if r.onMigrate != nil {
			r.onMigrate(len(jobs), latency)
		}
	}
	return len(jobs)
}

// Drain rejects further submissions, closes the intake and joins every
// shard: each drain source admits what its queue still holds and then
// drains its runtime from inside the world (the only legal drain on a
// virtual clock); a cluster built with sources waits for its sources to
// end the run. Drain blocks until every shard has finished and returns
// the first shard error, if any. Safe to call more than once.
func (r *Router) Drain() error {
	// Flip the flag under the submission lock: a submission inside its
	// critical section completes first, and everything after sees the flag.
	r.mu.Lock()
	r.draining.Store(true)
	r.mu.Unlock()
	// Migrations registered before the flag flipped may still be
	// re-queueing stolen jobs, and batches registered before it may still
	// be appending; new ones can no longer begin. Wait both out so every
	// slab flush happens-before the close below and the drain sources'
	// final post-close take observes every job. Producers still blocked
	// in reserve never registered — close wakes them with ErrDraining.
	r.migrations.Wait()
	r.enqueues.Wait()
	r.Start()
	r.fh.close(ErrDraining)
	r.joinOnce.Do(func() {
		var errs []error
		for range r.shards {
			if err := <-r.errs; err != nil {
				errs = append(errs, err)
			}
		}
		r.err = errors.Join(errs...)
	})
	return r.err
}
