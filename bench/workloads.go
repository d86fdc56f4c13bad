package main

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/sched"
	"repro/internal/schedd"
	"repro/internal/sim"
)

// Nominal populations, sized on a 2-core machine so each workload's timed
// window is about ten seconds at -seconds 10; every size scales linearly
// with -seconds (and by 1/4 in a traced run, 1/10 under -short).
const (
	bulkLines     = 3000 // × bulkPerLine = 3,000,000 jobs
	bulkPerLine   = 1000
	perjobJobs    = 400_000
	scrapePreload = 100_000 // fixed: the population is what the scrape cost depends on
	scrapeStats   = 3
	scrapeLookups = 20_000
	scrapeTraces  = 200
	scrapeMetrics = 20
	sweepPasses   = 30
	bgLineJobs    = 50 // background ingest beside the scrape: 20 lines/s × 50 jobs
	bgLinesPerSec = 20
	bulkWindow    = 32  // un-acked lines in flight, firehose_bulk (1 connection)
	perjobWindow  = 512 // un-acked lines in flight per connection, firehose_perjob
	perjobConns   = 2
	preloadWindow = 4 // un-acked one-job lines in flight while scrape_at_scale preloads
	serveConns    = 2
	readTimeBox   = 30 * time.Second
	runTimeBox    = 170 * time.Second // a run must exit within 180 s whatever happens
	minSetupReps  = 3
	maxSetupReps  = 100
	setupBudget   = 300 * time.Millisecond
)

// env is what one workload run is parameterised by.
type env struct {
	seed  int64
	scale float64 // population multiplier: seconds/10 × trace and -short factors
	tr    *tracer // nil in an untraced run
	// setupOnce skips the set-up repetitions: the runs behind the per-layer
	// metrics do not report set-up time.
	setupOnce bool
}

// scaled applies the run's population multiplier to a nominal size.
func (e env) scaled(n int) int { return max(1, int(math.Round(float64(n)*e.scale))) }

// result is what one workload run measured.
type result struct {
	workload string
	setupS   float64 // median set-up time
	setupN   int
	windowS  float64
	ops      int       // work units completed in the window
	opsPerS  float64   // the workload's throughput, as it defines it
	opUnit   string    // what one op is
	opLatMS  []float64 // per-op latency samples, in issue order
	tailCap  float64   // highest percentile the tail may be read at
	heapMB   float64   // live heap after the window, service still referenced
	// retainedBPerJob is the live-heap growth per job (service workloads).
	retainedBPerJob float64

	attempted, failed int
	failures          []string // first few, for the report
	note              string   // one free-form report line

	lat   [3]float64        // latencySummary of opLatMS, once taken
	diag  map[string]metric // workload-specific diagnostics (report only)
	layer map[string]metric // counts read at layer boundaries after the run
	spans *tracer
}

func newResult(name, opUnit string, e env) *result {
	return &result{workload: name, opUnit: opUnit, tailCap: closedLoopTail,
		diag: map[string]metric{}, layer: map[string]metric{}, spans: e.tr}
}

// latency is the run's latency summary; the sample is sorted slice by slice
// once, however many reports read it.
func (r *result) latency() (p50, tail, tailP float64) {
	if r.lat == [3]float64{} {
		r.lat[0], r.lat[1], r.lat[2] = latencySummary(r.opLatMS, r.tailCap)
	}
	return r.lat[0], r.lat[1], r.lat[2]
}

// check counts one oracle or operation; a false ok is a failure.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// checkN counts n operations that all succeeded.
func (r *result) checkN(n int) { r.attempted += n }

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// setupMedian sets the workload up repeatedly — until setupBudget of
// set-up time is spent, at least minSetupReps and at most maxSetupReps
// times — keeps the last instance for the measured window, tears the
// earlier ones down (untimed) and returns the median set-up time with the
// number of repetitions. A set-up of a few milliseconds gets many
// repetitions, which its median needs; one of seconds gets the minimum.
//
// Every repetition starts from a heap handed back to the OS. Constructing
// a service is 0.2 ms of work and 9 MB of buffers, and what the buffers
// cost depends on where the runtime finds them — fresh from the OS,
// recycled from the instance torn down before, or scavenged in between —
// which made schedd.New 1.6 to 4 ms from one process to the next. From an
// empty heap every repetition faults in and clears what it allocates, as
// the first set-up of a process does, and repeats to a few percent.
func setupMedian[T any](e env, setup func() (T, error), teardown func(T)) (T, float64, int, error) {
	var kept T
	var times []float64
	spent := 0.0
	least, most := minSetupReps, maxSetupReps
	if e.setupOnce {
		least, most = 1, 1
	}
	for len(times) < least || (spent < setupBudget.Seconds() && len(times) < most) {
		if len(times) > 0 {
			teardown(kept)
		}
		debug.FreeOSMemory()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return kept, 0, 0, err
		}
		kept = v
		times = append(times, time.Since(start).Seconds())
		spent += times[len(times)-1]
	}
	return kept, median(times), len(times), nil
}

// connect opens conns connections to a fresh service by issuing one probe
// each, so the timed window never pays a TCP handshake.
func connect(ctx context.Context, svc *service, conns int) error {
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, _, errs[c] = svc.get(ctx, "/healthz")
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkAckRanges is the ID oracle: over every connection, the acked ranges
// must tile [0, jobs) exactly — consecutive, disjoint, nothing missing.
func checkAckRanges(r *result, outcomes []streamOutcome, jobs int) {
	var acks []schedd.StreamAck
	for _, o := range outcomes {
		acks = append(acks, o.acks...)
	}
	sort.Slice(acks, func(a, b int) bool { return acks[a].Base < acks[b].Base })
	next := 0
	for _, a := range acks {
		if a.Base != next {
			r.check(false, "ack range [%d,%d) does not follow %d", a.Base, a.Base+a.Count, next)
			return
		}
		next += a.Count
	}
	r.check(next == jobs, "acked ranges cover %d of %d jobs", next, jobs)
}

// checkCounts is the population oracle after a drain.
func checkCounts(r *result, srv *schedd.Server, jobs int) {
	c := srv.Counts()
	r.check(c.Completed == jobs && c.Submitted == jobs,
		"completed %d / submitted %d of %d jobs", c.Completed, c.Submitted, jobs)
}

// serviceCounters reads the loss and waiting counters at the serving
// layers' boundaries.
func serviceCounters(ctx context.Context, r *result, svc *service, queuePeak int) {
	c, err := svc.counters(ctx)
	r.check(err == nil, "reading counters: %v", err)
	count := func(name, family string) { r.layer[name] = metric{Value: c[family], Unit: "count"} }
	count("live.events_dropped", "schedd_events_dropped_total")
	count("schedd.watch_dropped", "schedd_watch_events_dropped_total")
	count("flight.segments_dropped", "schedd_flight_segments_dropped_total")
	if gets := c["schedd_firehose_slab_gets_total"]; gets > 0 {
		r.layer["cluster.slab_hit_ratio"] = metric{Value: c["schedd_firehose_slab_hits_total"] / gets, Unit: "ratio", N: int(gets)}
	}
	r.layer["cluster.intake_queue_peak"] = metric{Value: float64(queuePeak), Unit: "count"}
}

// sampleQueuePeak polls the firehose intake depth until stop closes and
// returns the highest value seen.
func sampleQueuePeak(srv *schedd.Server, stop <-chan struct{}) <-chan int {
	out := make(chan int, 1)
	go func() {
		peak := 0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, srv.Router().FirehoseDepth())
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// ackRate is a firehose run's throughput: the steady rate at which jobs
// were acked over all connections. Behind the bounded intake a line is
// acked only as fast as earlier jobs complete, so in steady state this is
// the completion rate — without the fill at the start and the drain at the
// end, which jobs ÷ window (reported beside it) includes.
func ackRate(outcomes []streamOutcome) float64 {
	type ack struct {
		at   time.Time
		jobs int
	}
	var acks []ack
	for _, o := range outcomes {
		for i, a := range o.acks {
			acks = append(acks, ack{o.ackedAt[i], a.Count})
		}
	}
	sort.Slice(acks, func(a, b int) bool { return acks[a].at.Before(acks[b].at) })
	at, n := make([]time.Time, len(acks)), make([]int, len(acks))
	for i, a := range acks {
		at[i], n[i] = a.at, a.jobs
	}
	return segmentRate(at, n)
}

// firehoseShape distinguishes the two firehose workloads.
type firehoseShape struct {
	name   string
	conns  int
	window int
	// lines builds the run's NDJSON lines and returns them with the total
	// job count.
	lines func(e env) ([][]byte, int)
	// validate runs the per-shard one-port validators on the drained
	// schedules (firehose_bulk, traced scale only).
	validate bool
}

var bulkShape = firehoseShape{
	name: "firehose_bulk", conns: 1, window: bulkWindow, validate: true,
	lines: func(e env) ([][]byte, int) {
		n := e.scaled(bulkLines)
		return repeatLine(bulkLine(bulkPerLine), n), n * bulkPerLine
	},
}

var perjobShape = firehoseShape{
	name: "firehose_perjob", conns: perjobConns, window: perjobWindow,
	lines: func(e env) ([][]byte, int) {
		n := e.scaled(perjobJobs)
		return perjobLines(perturbedSpecs(e.seed, "firehose_perjob/scales", n)), n
	},
}

// firehoseInstance is one set-up of a firehose workload.
type firehoseInstance struct {
	svc   *service
	lines [][]byte
	jobs  int
}

// runFirehose streams the shape's lines into a -virtual service as a
// closed loop and times first send through Server.Drain returning.
func runFirehose(ctx context.Context, e env, shape firehoseShape) (*result, error) {
	r := newResult(shape.name, "job", e)
	before := heapLive()
	inst, setupS, setupN, err := setupMedian(e, func() (firehoseInstance, error) {
		lines, jobs := shape.lines(e)
		svc, err := newService(serviceConfig(true))
		if err != nil {
			return firehoseInstance{}, err
		}
		return firehoseInstance{svc, lines, jobs}, connect(ctx, svc, shape.conns)
	}, func(fi firehoseInstance) { _ = fi.svc.close() })
	if err != nil {
		return nil, err
	}
	svc := inst.svc
	defer svc.close()
	r.setupS, r.setupN = setupS, setupN

	stopPeak := make(chan struct{})
	peak := sampleQueuePeak(svc.srv, stopPeak)

	root := e.tr.begin(0, "bench", "window")
	start := time.Now()
	outcomes := make([]streamOutcome, shape.conns)
	var wg sync.WaitGroup
	for c := 0; c < shape.conns; c++ {
		lo, hi := c*len(inst.lines)/shape.conns, (c+1)*len(inst.lines)/shape.conns
		wg.Add(1)
		go func(c int, lines [][]byte) {
			defer wg.Done()
			conn := e.tr.begin(root, "bench", "stream")
			var onSend func(int) func()
			if e.tr != nil {
				onSend = func(int) func() {
					id := e.tr.begin(conn, "schedclient", "send")
					return func() { e.tr.end(id) }
				}
			}
			outcomes[c] = streamLines(ctx, svc, lines, shape.window, nil, onSend)
			e.tr.end(conn)
		}(c, inst.lines[lo:hi])
	}
	wg.Wait()
	drain := e.tr.begin(root, "schedd", "Drain")
	drainErr := svc.srv.Drain()
	e.tr.end(drain)
	r.windowS = time.Since(start).Seconds()
	e.tr.end(root)
	close(stopPeak)

	for _, o := range outcomes {
		r.check(o.err == nil, "stream: %v", o.err)
		r.checkN(len(o.acks))
		r.opLatMS = append(r.opLatMS, o.latenciesMS()...)
	}
	r.check(drainErr == nil, "drain: %v", drainErr)
	r.ops = inst.jobs
	r.opsPerS = ackRate(outcomes)
	checkCounts(r, svc.srv, inst.jobs)
	checkAckRanges(r, outcomes, inst.jobs)
	if shape.validate && e.tr != nil {
		sp := e.tr.begin(0, "core", "ValidateSchedule")
		for _, sh := range svc.srv.Router().Shards() {
			err := core.ValidateSchedule(sh.Result().Schedule)
			r.check(err == nil, "shard %d schedule: %v", sh.Index(), err)
		}
		e.tr.end(sp)
	}
	serviceCounters(ctx, r, svc, <-peak)
	// Only the service's memory is measured: the harness's own per-line
	// records go first.
	outcomes, inst.lines = nil, nil
	after := heapLive()
	r.heapMB = float64(after) / (1 << 20)
	r.retainedBPerJob = (float64(after) - float64(before)) / float64(inst.jobs)
	return r, nil
}

// serveInstance is one set-up of a serve workload.
type serveInstance struct {
	svc *service
	due []time.Duration
}

// arrival is one open-loop submission's record.
type arrival struct {
	due, sent, answered time.Time
	gid                 int
	err                 error
}

// runServe offers seeded Poisson arrivals to a real-clock service as an
// open loop: each arrival is one POST /v1/jobs sent at its due time on one
// of two connections, whether or not earlier ones have been answered. A
// job's latency runs from its due time, so a stalled generator or service
// charges the wait to the jobs it delayed.
func runServe(ctx context.Context, e env, name string, perSecond float64) (*result, error) {
	r := newResult(name, "job", e)
	r.tailCap = openLoopTail
	dur := time.Duration(10 * e.scale * float64(time.Second))
	before := heapLive()
	inst, setupS, setupN, err := setupMedian(e, func() (serveInstance, error) {
		due := poissonArrivals(e.seed, name+"/arrivals", perSecond, dur)
		svc, err := newService(serviceConfig(false))
		if err != nil {
			return serveInstance{}, err
		}
		// schedclient is the generators' client; one probe per connection
		// through it warms its own transport.
		for c := 0; c < serveConns; c++ {
			if _, err := svc.cli.Health(); err != nil {
				return serveInstance{}, err
			}
		}
		return serveInstance{svc, due}, nil
	}, func(si serveInstance) { _ = si.svc.close() })
	if err != nil {
		return nil, err
	}
	svc := inst.svc
	defer svc.close()
	r.setupS, r.setupN = setupS, setupN

	arrivals := make([]arrival, len(inst.due))
	root := e.tr.begin(0, "bench", "window")
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(arrivals); i += serveConns {
				a := &arrivals[i]
				a.due = start.Add(inst.due[i])
				if ctx.Err() != nil {
					a.err = ctx.Err()
					continue
				}
				time.Sleep(time.Until(a.due))
				sp := e.tr.begin(root, "schedclient", "Submit")
				a.sent = time.Now()
				resp, err := svc.cli.Submit(schedd.SubmitRequest{Count: 1})
				a.answered = time.Now()
				e.tr.end(sp)
				if err != nil {
					a.err = err
				} else if len(resp.IDs) != 1 {
					a.err = fmt.Errorf("%d ids for one job", len(resp.IDs))
				} else {
					a.gid = resp.IDs[0]
				}
			}
		}(c)
	}
	wg.Wait()
	drain := e.tr.begin(root, "schedd", "Drain")
	drainErr := svc.srv.Drain()
	e.tr.end(drain)
	r.windowS = time.Since(start).Seconds()
	e.tr.end(root)
	r.check(drainErr == nil, "drain: %v", drainErr)

	// Read every job back: it must be done, and its model-time flow
	// (rescaled to wall) completes the latency the POST round trip began.
	router := svc.srv.Router()
	late := make([]float64, 0, len(arrivals))
	flows := make([]jobFlow, 0, len(arrivals))
	lookup := e.tr.begin(0, "cluster", "Router.Job")
	for i := range arrivals {
		a := &arrivals[i]
		if a.err != nil {
			r.check(false, "submit %d: %v", i, a.err)
			continue
		}
		info, ok := router.Job(a.gid)
		if !ok || info.State != live.StateDone {
			r.check(false, "job %d is %q after drain", a.gid, info.State)
			continue
		}
		r.checkN(1)
		shard, _ := router.ShardOf(a.gid)
		flows = append(flows, jobFlow{shard: shard, submitted: info.Submitted, flow: info.Latency()})
		r.opLatMS = append(r.opLatMS, float64(a.answered.Sub(a.due))/1e6+info.Latency()/clockScale*1e3)
		late = append(late, float64(a.sent.Sub(a.due))/1e6)
	}
	e.tr.end(lookup)
	r.ops = len(r.opLatMS)
	r.opsPerS = float64(r.ops) / r.windowS
	checkCounts(r, svc.srv, len(arrivals))
	serviceCounters(ctx, r, svc, 0)

	sort.Float64s(late)
	r.diag["serve.generator_late_p99_ms"] = metric{Value: percentile(late, 99), Unit: "ms", N: len(late)}
	infl, err := flowInflation(svc.srv, flows)
	r.check(err == nil, "flow inflation replay: %v", err)
	r.layer["live.flow_inflation"] = metric{Value: infl, Unit: "ratio", N: len(flows)}

	jobs := len(arrivals)
	arrivals, flows, late, inst.due = nil, nil, nil, nil // harness records are not the service's memory
	after := heapLive()
	r.heapMB = float64(after) / (1 << 20)
	r.retainedBPerJob = (float64(after) - float64(before)) / float64(max(1, jobs))
	return r, nil
}

// jobFlow is one served job as the replay needs it.
type jobFlow struct {
	shard     int
	submitted float64 // model seconds
	flow      float64 // model seconds, submit → complete
}

// flowInflation compares the flows the real-clock service delivered with
// the flows the paper's model predicts for the same arrivals: each shard's
// recorded submission times are replayed as releases through sim.Simulate
// on that shard's platform, and the result is median measured flow over
// median simulated flow (1.0 is the model).
func flowInflation(srv *schedd.Server, flows []jobFlow) (float64, error) {
	var measured, simulated []float64
	for _, sh := range srv.Router().Shards() {
		var tasks []core.Task
		first := 0.0
		for _, f := range flows {
			if f.shard != sh.Index() {
				continue
			}
			if len(tasks) == 0 || f.submitted < first {
				first = f.submitted
			}
			tasks = append(tasks, core.Task{Release: f.submitted, CommScale: 1, CompScale: 1})
			measured = append(measured, f.flow)
		}
		if len(tasks) == 0 {
			continue
		}
		for i := range tasks {
			tasks[i].Release -= first
		}
		s, err := sim.Simulate(sh.Platform(), sched.New(policy), tasks)
		if err != nil {
			return 0, err
		}
		for _, rec := range s.Records {
			simulated = append(simulated, rec.Flow())
		}
	}
	if len(simulated) == 0 {
		return 0, fmt.Errorf("no flows to replay")
	}
	return median(measured) / median(simulated), nil
}
