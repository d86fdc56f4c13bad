package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// The layer ladder feeds one seeded job population into the stack at
// successively lower entry points — loopback TCP, the HTTP handler in
// memory, the cluster router, one live runtime per shard — and reads each
// layer's self cost off the difference between adjacent rungs. Below the
// ladders, each remaining layer is timed through its public functions on
// its own. Populations are fixed (they do not scale with -seconds): the
// ladder is a battery, not a window.
const (
	ladderBulkLines  = 200 // × bulkPerLine = 200,000 jobs
	ladderPerjobJobs = 50_000
	ladderTrackerPop = 100_000
	lifecycleReps    = 3
	admitReps        = 5
	// Same admission control the firehose intake applies in front of each
	// shard runtime (cluster.FirehoseConfig defaults).
	slabSize    = 512
	admitWindow = 1024
	admitPoll   = 0.01
	// The observability defaults schedd.New hands the cluster.
	auditDepth  = 256
	eventLogCap = 65536
)

// ladderMetrics names everything runLadder reports, which with the
// numbers read off the traced workload run is BENCHMARK.json's per_layer
// list.
var ladderMetrics = []string{
	"schedd.wire_ns_per_job.bulk", "schedd.wire_ns_per_job.perjob",
	"schedd.stream_ns_per_line", "schedd.stream_allocs_per_line",
	"schedd.fanout_ns_per_job", "schedd.stats_build_ms",
	"cluster.admit_ns_per_job.bulk", "cluster.admit_ns_per_job.perjob",
	"cluster.admit_allocs_per_job.bulk", "cluster.admit_allocs_per_job.perjob",
	"cluster.pickbatch_ns_per_job.least-loaded", "cluster.pickbatch_ns_per_job.het-aware",
	"cluster.pickbatch_ns_per_job.round-robin",
	"cluster.lifecycle_ns_per_job", "cluster.index_lookup_ns",
	"live.lifecycle_ns_per_job", "live.tracker_observe_ns_per_event", "live.tracker_snapshot_ms",
	"vclock.switch_ns", "flight.append_ns_per_event", "flight.append_allocs", "obs.record_ns",
	"trace.analyze_ms.n10k", "trace.analyze_ms.n20k", "stats.summarize_ns_per_sample",
	"sim.engine_ns_per_task",
	"sched.ns_per_task.SRPT", "sched.ns_per_task.LS", "sched.ns_per_task.RR", "sched.ns_per_task.RRC",
	"sched.ns_per_task.RRP", "sched.ns_per_task.SLJF", "sched.ns_per_task.SLJFWC", "sched.ns_per_task.SO-LS",
	"runner.parallel_speedup", "runner.cell_overhead_ns",
	"bench.ladder_residual_ratio",
}

// perLayerNames is every per-layer metric a --trace 1 run prints.
func perLayerNames() []string {
	names := append([]string{"bench.trace_overhead_ratio"}, ladderMetrics...)
	for name := range workloadLayerMetrics {
		names = append(names, name)
	}
	return names
}

// ladderShape is one line shape's inputs in every form a rung needs.
type ladderShape struct {
	suffix string
	lines  [][]byte
	specs  []live.JobSpec // one per line
	counts int            // jobs per line
	jobs   int
}

func (s ladderShape) body() []byte { return bytes.Join(s.lines, nil) }

func ladderShapes(seed int64, scale float64) (bulk, perjob ladderShape) {
	nb := max(1, int(float64(ladderBulkLines)*scale))
	bulk = ladderShape{suffix: "bulk", lines: repeatLine(bulkLine(bulkPerLine), nb),
		specs: make([]live.JobSpec, nb), counts: bulkPerLine, jobs: nb * bulkPerLine}
	np := max(1, int(float64(ladderPerjobJobs)*scale))
	specs := perturbedSpecs(seed, "ladder/perjob", np)
	perjob = ladderShape{suffix: "perjob", lines: perjobLines(specs), specs: specs, counts: 1, jobs: np}
	return bulk, perjob
}

// newCluster builds the bare cluster the way schedd.New does for a
// -virtual service, minus schedd's observer.
func newCluster(queueDepth int) (*cluster.Router, error) {
	return cluster.New(cluster.Config{
		Platform:     canonicalPlatform(),
		NewScheduler: func() sim.Scheduler { return sched.New(policy) },
		Shards:       shards,
		Placement:    placement,
		Partition:    partition,
		AuditDepth:   auditDepth,
		EventLogCap:  eventLogCap,
		World:        func(int) live.World { return live.NewVirtual() },
		Firehose:     &cluster.FirehoseConfig{QueueDepth: queueDepth},
	})
}

// admitTCP is the top admission rung: the lines over loopback TCP into a
// -virtual service whose intake bound is lifted above the population, timed
// from first send to last ack. The drain runs outside the window.
func admitTCP(ctx context.Context, s ladderShape) (time.Duration, error) {
	cfg := serviceConfig(true)
	cfg.IngestQueueDepth = s.jobs + 1
	svc, err := newService(cfg)
	if err != nil {
		return 0, err
	}
	defer svc.close()
	if err := connect(ctx, svc, 1); err != nil {
		return 0, err
	}
	start := time.Now()
	o := streamLines(ctx, svc, s.lines, len(s.lines), nil, nil)
	return time.Since(start), o.err
}

// serveInMemory hands the whole body to the stream handler with no socket
// in between and checks that every line was acked.
func serveInMemory(h http.Handler, s ladderShape, body []byte) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs:stream", bytes.NewReader(body)))
	if acks := bytes.Count(rec.Body.Bytes(), []byte("\n")); rec.Code != http.StatusOK || acks != len(s.lines) {
		return fmt.Errorf("in-memory stream: status %d, %d acks for %d lines", rec.Code, acks, len(s.lines))
	}
	return nil
}

// admitHandler is the middle admission rung: the same lines through
// Server.Handler().ServeHTTP in memory. It also returns the allocations
// made while the handler ran — process-wide, so they include whatever the
// shards allocated for jobs that completed inside the window.
func admitHandler(s ladderShape) (time.Duration, uint64, error) {
	cfg := serviceConfig(true)
	cfg.IngestQueueDepth = s.jobs + 1
	svc, err := newService(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer svc.close()
	body := s.body()
	m0 := mallocs()
	start := time.Now()
	err = serveInMemory(svc.srv.Handler(), s, body)
	return time.Since(start), mallocs() - m0, err
}

// admitCluster is the bottom admission rung: SubmitRange per line — the
// call the stream handler makes — straight into the bare cluster's intake:
// placement, ID allocation and the intake enqueue. The cluster is running,
// like the services of the two rungs above, so that admission slabs are
// recycled as they are in service (into a cluster that never starts, every
// one-job line would allocate a fresh 512-job slab) and the three rungs
// compete with the same shard drivers for the two cores. The allocation
// count is process-wide, like admitHandler's.
func admitCluster(s ladderShape) (time.Duration, uint64, error) {
	r, err := newCluster(s.jobs + 1)
	if err != nil {
		return 0, 0, err
	}
	r.Start()
	m0 := mallocs()
	start := time.Now()
	for _, spec := range s.specs {
		if _, err := r.SubmitRange(spec, s.counts); err != nil {
			return 0, 0, err
		}
	}
	d, allocs := time.Since(start), mallocs()-m0
	return d, allocs, r.Drain()
}

// lifecycleSchedd is the top lifecycle rung: in-memory ingest into a
// default -virtual service through to Drain returning.
func lifecycleSchedd(s ladderShape) (time.Duration, error) {
	svc, err := newService(serviceConfig(true))
	if err != nil {
		return 0, err
	}
	defer svc.close()
	body := s.body()
	start := time.Now()
	if err := serveInMemory(svc.srv.Handler(), s, body); err != nil {
		return 0, err
	}
	if err := svc.srv.Drain(); err != nil {
		return 0, err
	}
	d := time.Since(start)
	if c := svc.srv.Counts(); c.Completed != s.jobs {
		return 0, fmt.Errorf("schedd rung completed %d of %d jobs", c.Completed, s.jobs)
	}
	return d, nil
}

// lifecycleCluster is the middle lifecycle rung: the bare router, started,
// fed by SubmitRange and drained. It returns how many jobs placement gave
// each shard, which the live rung below reuses.
func lifecycleCluster(s ladderShape) (time.Duration, []int, error) {
	r, err := newCluster(0)
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	r.Start()
	for _, spec := range s.specs {
		if _, err := r.SubmitRange(spec, s.counts); err != nil {
			return 0, nil, err
		}
	}
	if err := r.Drain(); err != nil {
		return 0, nil, err
	}
	d := time.Since(start)
	perShard := make([]int, 0, shards)
	total := 0
	for _, sh := range r.Shards() {
		n := sh.Tracker().CountsSnapshot().Completed
		perShard = append(perShard, n)
		total += n
	}
	if total != s.jobs {
		return 0, nil, fmt.Errorf("cluster rung completed %d of %d jobs", total, s.jobs)
	}
	return d, perShard, nil
}

// slabSource submits n nominal jobs in slabSize slabs under the firehose
// intake's admission window and back-off, then drains — what
// cluster's drain loop does, with nothing queued behind it.
func slabSource(rt func() *live.Runtime, n int) func(*live.Source) {
	return func(src *live.Source) {
		slab := make([]live.JobSpec, slabSize)
		for sent := 0; sent < n; {
			wait := admitPoll
			for rt().Load().Outstanding() >= admitWindow {
				src.Sleep(wait)
				if wait < admitPoll*1024 {
					wait *= 2
				}
			}
			k := min(slabSize, n-sent)
			src.SubmitSpecs(slab[:k])
			sent += k
		}
		src.Drain()
	}
}

// runLive runs one virtual-clock runtime over pl to completion with n
// jobs from a slabSource; observer may be nil.
func runLive(pl core.Platform, n, logCap int, observer func(live.Event)) (live.Result, error) {
	var rt *live.Runtime
	rt, err := live.New(live.Config{
		Platform:    pl,
		Scheduler:   sched.New(policy),
		World:       live.NewVirtual(),
		Sources:     []func(*live.Source){slabSource(func() *live.Runtime { return rt }, n)},
		Observer:    observer,
		EventLogCap: logCap,
	})
	if err != nil {
		return live.Result{}, err
	}
	if err := rt.Wait(); err != nil {
		return live.Result{}, err
	}
	return rt.Result(), nil
}

// lifecycleLive is the bottom lifecycle rung: one bare live.Runtime per
// shard platform — master dispatch, slave service and the vclock kernel,
// no tracker, no observer — each given the job count placement gave its
// shard, all four running at once as they do under the cluster.
func lifecycleLive(perShard []int) (time.Duration, error) {
	parts, err := canonicalPlatform().Partition(shards, partition)
	if err != nil {
		return 0, err
	}
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	start := time.Now()
	for i, part := range parts {
		wg.Add(1)
		go func(i int, pl core.Platform) {
			defer wg.Done()
			var res live.Result
			res, errs[i] = runLive(pl, perShard[i], eventLogCap, nil)
			if errs[i] == nil && len(res.Schedule.Records) != perShard[i] {
				errs[i] = fmt.Errorf("live rung shard %d completed %d of %d jobs", i, len(res.Schedule.Records), perShard[i])
			}
		}(i, part.Platform)
	}
	wg.Wait()
	d := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return d, nil
}

// trickleRecords synthesises the schedule shape a slow ingest leaves
// behind: every job arrives after the port went idle, so every record
// opens a port-idle gap and no later job was released before it.
func trickleRecords(seed int64, n int) core.Schedule {
	rng := stream(seed, "ladder/trickle")
	pl := canonicalPlatform()
	recs := make([]core.Record, n)
	t := 0.0
	for i := range recs {
		j := i % pl.M()
		t += pl.C[j] + 0.05 + 0.1*rng.Float64()
		recs[i] = core.Record{Task: core.TaskID(i), Slave: j, Release: t, SendStart: t,
			Arrive: t + pl.C[j], Start: t + pl.C[j], Complete: t + pl.C[j] + pl.P[j]}
	}
	return core.Schedule{Instance: core.Instance{Platform: pl}, Records: recs}
}

// nsPer is d spread over n units, in nanoseconds.
func nsPer(d time.Duration, n int) float64 { return float64(d) / float64(n) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runLadder measures every ladder rung and every stand-alone layer
// metric. The returned result carries the rungs' own oracle checks.
func runLadder(ctx context.Context, o options) (map[string]metric, *result, error) {
	scale := 1.0
	if o.short {
		scale = 0.1
	}
	r := &result{workload: "ladder"}
	out := map[string]metric{}
	put := func(name string, v float64, unit string, n int) { out[name] = metric{Value: v, Unit: unit, N: n} }
	bulk, perjob := ladderShapes(o.seed, scale)

	// Admission ladder, both line shapes: TCP → handler → cluster.
	for _, s := range []ladderShape{bulk, perjob} {
		tcp, err := admitTCP(ctx, s)
		if err != nil {
			return nil, nil, fmt.Errorf("admission over TCP (%s): %w", s.suffix, err)
		}
		mem, memAllocs, err := admitHandler(s)
		if err != nil {
			return nil, nil, fmt.Errorf("admission in memory (%s): %w", s.suffix, err)
		}
		// The bottom rung shares the two cores with the drain sources its
		// own submissions wake, and its time swings severalfold from one
		// repetition to the next; it is short, so it is repeated.
		var admNS, admAllocsAll []float64
		for rep := 0; rep < admitReps; rep++ {
			d, allocs, err := admitCluster(s)
			if err != nil {
				return nil, nil, fmt.Errorf("cluster admission (%s): %w", s.suffix, err)
			}
			admNS, admAllocsAll = append(admNS, float64(d)), append(admAllocsAll, float64(allocs))
		}
		adm, admAllocs := time.Duration(median(admNS)), median(admAllocsAll)
		self := ladderSelf([]float64{nsPer(tcp, s.jobs), nsPer(mem, s.jobs), nsPer(adm, s.jobs)})
		put("schedd.wire_ns_per_job."+s.suffix, self[0], "ns", s.jobs)
		put("cluster.admit_ns_per_job."+s.suffix, self[2], "ns", s.jobs)
		put("cluster.admit_allocs_per_job."+s.suffix, admAllocs/float64(s.jobs), "count", s.jobs)
		if s.suffix == "perjob" {
			// Per line, and only where lines are the unit of work.
			put("schedd.stream_ns_per_line", self[1]*float64(s.counts), "ns", len(s.lines))
			put("schedd.stream_allocs_per_line", (float64(memAllocs)-admAllocs)/float64(len(s.lines)), "count", len(s.lines))
		}
	}

	// Lifecycle ladder, bulk shape: firehose_bulk itself → schedd in memory
	// → bare cluster → bare live runtimes. A rung is well under a second,
	// so the four are run round-robin lifecycleReps times and each rung's
	// median is kept: a disturbance then lands on one repetition of every
	// rung, not on one rung.
	var topNS, sdNS, clNS, lvNS []float64
	for rep := 0; rep < lifecycleReps; rep++ {
		top, err := runFirehose(ctx, env{seed: o.seed, scale: float64(len(bulk.lines)) / bulkLines, setupOnce: true}, bulkShape)
		if err != nil {
			return nil, nil, fmt.Errorf("lifecycle over TCP: %w", err)
		}
		r.attempted, r.failed, r.failures = r.attempted+top.attempted, r.failed+top.failed, append(r.failures, top.failures...)
		sd, err := lifecycleSchedd(bulk)
		if err != nil {
			return nil, nil, err
		}
		cl, perShard, err := lifecycleCluster(bulk)
		if err != nil {
			return nil, nil, err
		}
		lv, err := lifecycleLive(perShard)
		if err != nil {
			return nil, nil, err
		}
		topNS = append(topNS, top.windowS*1e9/float64(top.ops))
		sdNS, clNS, lvNS = append(sdNS, nsPer(sd, bulk.jobs)), append(clNS, nsPer(cl, bulk.jobs)), append(lvNS, nsPer(lv, bulk.jobs))
	}
	self := ladderSelf([]float64{median(sdNS), median(clNS), median(lvNS)})
	put("schedd.fanout_ns_per_job", self[0], "ns", bulk.jobs)
	put("cluster.lifecycle_ns_per_job", self[1], "ns", bulk.jobs)
	put("live.lifecycle_ns_per_job", self[2], "ns", bulk.jobs)
	// What the rungs add up to against the window they are meant to
	// explain: the in-memory lifecycle plus the wire's share.
	explained := median(sdNS) + out["schedd.wire_ns_per_job.bulk"].Value
	put("bench.ladder_residual_ratio", (median(topNS)-explained)/median(topNS), "ratio", bulk.jobs)

	// cluster: batched placement alone, per policy.
	probe, err := newCluster(0)
	if err != nil {
		return nil, nil, err
	}
	defer probe.Drain()
	for _, name := range []string{cluster.PlacementLeastLoaded, cluster.PlacementHetAware, cluster.PlacementRoundRobin} {
		p, err := cluster.NewPlacement(name)
		if err != nil {
			return nil, nil, err
		}
		const reps, batch = 2000, 1000
		loads, staged, picks := probe.Loads(), make([]int, shards), make([]int, batch)
		d := timeIt(func() {
			for i := 0; i < reps; i++ {
				clear(staged)
				p.PickBatch(probe.Shards(), loads, staged, live.JobSpec{}, batch, picks, nil)
			}
		})
		put("cluster.pickbatch_ns_per_job."+name, nsPer(d, reps*batch), "ns", reps*batch)
	}

	// The scrape population: what /v1/stats and /v1/jobs/{id} cost below
	// the handler.
	pre, err := preloadService(ctx, o.seed, int(scrapePreload*scale))
	if err != nil {
		return nil, nil, err
	}
	defer pre.close()
	put("schedd.stats_build_ms", ms(timeIt(func() { pre.srv.Stats() })), "ms", 1) // seconds long: once is steady
	ids := lookupIDs(o.seed, "ladder/lookups", 200_000, int(scrapePreload*scale))
	router := pre.srv.Router()
	misses := 0
	d := timeIt(func() {
		for _, id := range ids {
			if _, ok := router.Job(id); !ok {
				misses++
			}
		}
	})
	r.check(misses == 0, "%d of %d Router.Job lookups missed", misses, len(ids))
	put("cluster.index_lookup_ns", nsPer(d, len(ids)), "ns", len(ids))

	// live: the tracker's write path (replaying a recorded event stream)
	// and its snapshot.
	trackerPop := int(ladderTrackerPop * scale)
	res, err := runLive(canonicalPlatform(), trackerPop, 0, nil)
	if err != nil {
		return nil, nil, err
	}
	var tracker *live.Tracker
	d = medianOf(3, func() {
		tracker = live.NewTracker()
		for _, ev := range res.Events {
			tracker.Observe(ev)
		}
	})
	r.check(tracker.CountsSnapshot().Completed == trackerPop, "tracker replay completed %d of %d", tracker.CountsSnapshot().Completed, trackerPop)
	put("live.tracker_observe_ns_per_event", nsPer(d, len(res.Events)), "ns", len(res.Events))
	put("live.tracker_snapshot_ms", ms(medianOf(5, func() { tracker.Stats() })), "ms", 5)

	// vclock: one context switch, from two procs handing a message back and
	// forth.
	const rounds = 100_000
	vc := vclock.New()
	var ping, pong int
	ping = vc.Spawn("ping", func(p *vclock.Proc) {
		for i := 0; i < rounds; i++ {
			p.Post(pong, vclock.Message{}, 0)
			p.Recv()
		}
	})
	pong = vc.Spawn("pong", func(p *vclock.Proc) {
		for i := 0; i < rounds; i++ {
			p.Recv()
			p.Post(ping, vclock.Message{}, 0)
		}
	})
	var vcErr error
	d = timeIt(func() { vcErr = vc.Run() })
	if vcErr != nil {
		return nil, nil, fmt.Errorf("vclock ping-pong: %w", vcErr)
	}
	put("vclock.switch_ns", nsPer(d, 2*rounds), "ns", 2*rounds)

	// flight and obs: the per-event journal and metric writes.
	rec, err := flight.New(flight.Config{})
	if err != nil {
		return nil, nil, err
	}
	const appends = 1_000_000
	m0 := mallocs()
	d = timeIt(func() {
		for i := 0; i < appends/2; i++ {
			rec.AppendEvent(i&3, live.Event{T: float64(i), Kind: live.EvCompleted, Task: i, Slave: i & 7})
			rec.AppendSpan(i&3, core.Record{Task: core.TaskID(i), Slave: i & 7, Complete: float64(i)})
		}
	})
	put("flight.append_ns_per_event", nsPer(d, appends), "ns", appends)
	put("flight.append_allocs", float64(mallocs()-m0)/appends, "count", appends)
	counter, hist := &obs.Counter{}, obs.NewHistogram(obs.LatencyBuckets())
	const records = 5_000_000
	d = timeIt(func() {
		for i := 0; i < records; i++ {
			counter.Inc()
			hist.Observe(float64(i&1023) * 1e-4)
		}
	})
	put("obs.record_ns", nsPer(d, records), "ns", records)

	// trace and stats: what a stats scrape spends its time in. Doubling n
	// doubles a linear Analyze and quadruples today's.
	for _, n := range []int{10_000, 20_000} {
		sch := trickleRecords(o.seed, int(float64(n)*scale))
		put(fmt.Sprintf("trace.analyze_ms.n%dk", n/1000), ms(medianOf(3, func() { trace.Analyze(sch) })), "ms", 3)
	}
	rng := stream(o.seed, "ladder/latencies")
	sample := make([]float64, 1_000_000)
	for i := range sample {
		sample[i] = rng.ExpFloat64()
	}
	scratch := make([]float64, len(sample))
	d = medianOf(3, func() {
		copy(scratch, sample)
		stats.SummarizeInPlace(scratch)
	})
	put("stats.summarize_ns_per_sample", nsPer(d, len(sample)), "ns", len(sample))

	// sim and sched: one engine run per heuristic on a heterogeneous
	// platform, the unit every sweep cell repeats.
	const simTasks, simReps = 1000, 40
	pl := core.Random(stream(o.seed, "ladder/platform"), core.Heterogeneous, core.GenConfig{M: 5})
	tasks := core.Bag(simTasks)
	simulate := func(name string) (float64, error) {
		var simErr error
		d := timeIt(func() {
			for i := 0; i < simReps && simErr == nil; i++ {
				_, simErr = sim.Simulate(pl, newScheduler(name, simTasks), tasks)
			}
		})
		return nsPer(d, simTasks*simReps), simErr
	}
	for _, name := range sched.ExtendedNames() {
		v, err := simulate(name)
		if err != nil {
			return nil, nil, fmt.Errorf("sim %s: %w", name, err)
		}
		put("sched.ns_per_task."+name, v, "ns", simTasks*simReps)
	}
	put("sim.engine_ns_per_task", out["sched.ns_per_task."+policy].Value, "ns", simTasks*simReps)

	// runner: what the pool costs per cell, and what it buys on this
	// machine for one sweep pass.
	const cells = 200_000
	d = timeIt(func() { _, _ = runner.Map(0, cells, func(int) (struct{}, error) { return struct{}{}, nil }) })
	put("runner.cell_overhead_ns", nsPer(d, cells), "ns", cells)
	cfg := experiment.Config{Seed: o.seed, Schedulers: sched.ExtendedNames()}
	if o.short {
		cfg.Platforms, cfg.Tasks = 4, 250
	}
	serial := cfg
	serial.Workers = 1
	ds := timeIt(func() { _, _, _ = sweepPass(nil, 0, serial) })
	dp := timeIt(func() { _, _, _ = sweepPass(nil, 0, cfg) })
	put("runner.parallel_speedup", float64(ds)/float64(dp), "ratio", 1)

	r.check(len(out) == len(ladderMetrics), "ladder reported %d metrics, declares %d", len(out), len(ladderMetrics))
	for _, name := range ladderMetrics {
		m, ok := out[name]
		r.check(ok && !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0), "ladder metric %s: reported %v, value %v", name, ok, m.Value)
	}
	return out, r, nil
}

// newScheduler instantiates a heuristic the way the experiments do: the
// SLJF planners are told the task count.
func newScheduler(name string, n int) sim.Scheduler {
	switch name {
	case "SLJF":
		return sched.NewSLJF(n)
	case "SLJFWC":
		return sched.NewSLJFWC(n)
	}
	return sched.New(name)
}
