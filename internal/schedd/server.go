// Package schedd is the streaming scheduling service: an HTTP/JSON front
// end over the sharded cluster layer (internal/cluster), which fans a
// fleet of live master–slave runtimes (internal/live) out over a
// partitioned platform. Any registered scheduling policy — the seven
// paper heuristics or SO-LS — serves each shard; jobs submitted over
// POST /v1/jobs (or streamed over POST /v1/jobs:stream) are placed on a
// shard by the configured placement policy, tracked via GET /v1/jobs/{id}
// under cluster-global IDs, and GET /v1/stats reports one section per
// shard plus a cluster view (latency and stage summaries over every
// shard's completed jobs, trace.MergeReports for the schedule analysis).
// With Shards = 1 the service is exactly the PR-3 single-runtime daemon.
// The daemon command (cmd/schedd) and the repository benchmark (bench/)
// both sit on this package.
package schedd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config describes one service instance.
type Config struct {
	// Platform gives the served platform's per-task costs. Required.
	Platform core.Platform
	// Policy names the serving policy; any sched.ExtendedNames entry.
	// Every shard's master runs its own instance of it.
	Policy string
	// Shards is the number of masters the platform is partitioned
	// across; 0 means 1 (the single-runtime service).
	Shards int
	// Placement names the shard-routing policy; empty means round-robin.
	Placement string
	// Partition selects how slaves are split across shards; empty means
	// striped.
	Partition core.PartitionStrategy
	// ClockScale is the speedup of the serving clock (model seconds per
	// wall second); non-positive means 1. A platform calibrated in paper
	// seconds can be served thousands of times faster than nominal.
	// Ignored (forced to 1) in VirtualClock mode.
	ClockScale float64
	// MaxBatch caps the count accepted by one POST /v1/jobs and by one
	// line of POST /v1/jobs:stream (default 10000).
	MaxBatch int
	// VirtualClock runs every shard on a deterministic virtual clock
	// (live.NewVirtual) instead of the scaled wall clock — the
	// pure-throughput mode: ingest is bounded by placement and admission
	// cost alone, never by wall-clock pacing. ClockScale is forced to 1
	// (virtual model seconds have no wall anchor) and Steal must be off: a
	// virtual world admits no outside event, so its masters refuse to be
	// stolen from (live.Runtime.StealPending).
	VirtualClock bool
	// IngestQueueDepth bounds the cluster's intake: the accepted jobs not
	// yet admitted by a shard runtime, on either clock. A submission on
	// either endpoint — POST /v1/jobs or a POST /v1/jobs:stream line —
	// that finds the intake full waits for room. 0 means 65536.
	IngestQueueDepth int
	// Steal names the cross-shard work-stealing policy; empty or "none"
	// serves without a rebalancer (the PR-5 cluster, bit for bit).
	Steal string
	// StealInterval is the rebalancer's pass interval; non-positive
	// means 50ms. Ignored unless Steal names an active policy.
	StealInterval time.Duration
	// DisableMetrics turns the /metrics and /debug/vars surface off
	// (the zero value serves metrics — observability is the default).
	DisableMetrics bool
	// Pprof mounts net/http/pprof under /debug/pprof/ — opt-in: the
	// profiling surface exposes stacks and heap contents, so it is never
	// on by accident.
	Pprof bool
	// AuditDepth sizes the decision-audit ring behind GET /v1/decisions:
	// 0 means 256, negative disables auditing.
	AuditDepth int
	// Logger receives the service's structured logs (rebalancer steal
	// plans at Debug). nil logs nothing from inside the service.
	Logger *slog.Logger
	// DisableRecorder turns the always-on flight recorder off. By
	// default every lifecycle event, completed span, audit decision and
	// periodic metrics snapshot is journaled into a bounded in-memory
	// segment ring served raw on GET /v1/flight.
	DisableRecorder bool
	// RecordDir, when set, persists sealed flight segments to this
	// directory as seg-NNNNNNNN.flight files (stale segments are cleared
	// at startup); empty keeps the recording memory-only.
	RecordDir string
	// RecordSegmentBytes and RecordMaxSegments size the recorder's
	// bounded ring; 0 takes the flight package defaults (1 MiB × 8).
	RecordSegmentBytes int
	RecordMaxSegments  int
	// SnapshotInterval is the cadence at which /debug/vars-style metric
	// snapshots are journaled into the recording; non-positive means 5s.
	// Only meaningful with both the recorder and metrics on.
	SnapshotInterval time.Duration
	// SLOs configures the burn-rate engine: each objective is tracked
	// over obs.NewSLO's default windows (5m and 1h) and surfaced on GET
	// /v1/slo, /metrics and /readyz.
	// Latency objectives are fed by job completions (wall seconds),
	// availability objectives by HTTP responses (status < 500 is good).
	// Empty serves GET /v1/slo with enabled: false.
	SLOs []obs.Objective
}

// Server is a running service: a sharded cluster plus its HTTP surface
// and, when stealing is on, the rebalancer migrating work between
// shards behind it.
type Server struct {
	cfg        Config
	router     *cluster.Router
	rebalancer *cluster.Rebalancer // nil when stealing is off
	mux        *http.ServeMux
	started    time.Time

	// now is the server's wall clock (time.Now in production). Uptime and
	// the SLO time base flow through it so tests can freeze the clock and
	// compare response bodies byte for byte.
	now func() time.Time

	// streamWorkers is the jobs:stream decode pipeline's parse-worker
	// count per connection: GOMAXPROCS capped at 8, so a one-core host
	// runs the same pipeline at one worker.
	streamWorkers int

	// metrics is the zero-dependency registry behind GET /metrics and
	// GET /debug/vars (nil with DisableMetrics). Almost everything in it
	// is a Func metric sampled at scrape time from counters the stack
	// already maintains atomically; the two real histograms (job and
	// migration latency) are fed by the completion tap and the migration
	// hook off the ingest path, so serving metrics adds nothing to the
	// hot path.
	metrics    *obs.Registry
	jobLatency *obs.Histogram // nil with DisableMetrics
	migLatency *obs.Histogram
	// scrapeMu makes a scrape one sample-then-render step (see gather).
	// loads and intake are the samples its Func readers share: each
	// shard's lock-free progress counters behind the schedd_jobs_*_total
	// families, the intake behind schedd_firehose_*, and both behind
	// schedd_queue_depth.
	scrapeMu sync.Mutex
	loads    []live.Load
	intake   cluster.FirehoseStats

	// recorder is the always-on flight recorder behind GET /v1/flight
	// (nil with DisableRecorder); watch fans lifecycle events out to GET
	// /v1/watch subscribers; slos are the configured burn-rate monitors,
	// latencySLOs the ones job completions feed.
	recorder    *flight.Recorder
	watch       *watchHub
	slos        []*obs.SLO
	latencySLOs []*obs.SLO

	// Periodic metrics-snapshot journaling (see startSnapshots).
	snapStop chan struct{}
	snapDone chan struct{}
	snapOnce sync.Once
}

// New validates the configuration and starts the cluster (one live
// runtime per shard, goroutine slaves on the scaled wall clock). The
// returned server is serving immediately; wire Handler into an
// http.Server and call Drain on shutdown.
func New(cfg Config) (*Server, error) {
	if err := sched.Validate(cfg.Policy); err != nil {
		return nil, fmt.Errorf("schedd: %w", err)
	}
	if err := cfg.Platform.Validate(); err != nil {
		return nil, fmt.Errorf("schedd: %w", err)
	}
	if cfg.ClockScale <= 0 {
		cfg.ClockScale = 1
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 10000
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Placement == "" {
		cfg.Placement = cluster.PlacementRoundRobin
	}
	if cfg.Partition == "" {
		cfg.Partition = core.PartitionStriped
	}
	if cfg.Steal == "" {
		cfg.Steal = cluster.StealNone
	}
	if err := cluster.ValidateStealPolicy(cfg.Steal); err != nil {
		return nil, fmt.Errorf("schedd: %w", err)
	}
	// What cluster.New would reject is rejected here, before the recorder
	// is built: flight.New clears the previous run's segments from
	// RecordDir, and a start that fails must leave that post-mortem alone.
	if err := cluster.ValidatePlacement(cfg.Placement); err != nil {
		return nil, fmt.Errorf("schedd: %w", err)
	}
	if _, err := cfg.Platform.Partition(cfg.Shards, cfg.Partition); err != nil {
		return nil, fmt.Errorf("schedd: cluster: %w", err)
	}
	if cfg.VirtualClock {
		if cfg.Steal != cluster.StealNone {
			return nil, fmt.Errorf("schedd: virtual-clock mode cannot steal (a virtual world admits no outside event, so its masters refuse to be stolen from)")
		}
		// Virtual model seconds have no wall anchor: latency conversions
		// divide by the scale, and 1 keeps them in model seconds.
		cfg.ClockScale = 1
	}
	// Auditing is on unless explicitly turned off (negative).
	auditDepth := cfg.AuditDepth
	switch {
	case auditDepth == 0:
		auditDepth = 256
	case auditDepth < 0:
		auditDepth = 0
	}
	s := &Server{cfg: cfg, started: time.Now(), now: time.Now, watch: newWatchHub()}
	s.streamWorkers = min(runtime.GOMAXPROCS(0), 8)
	// Everything the per-event tap writes to — SLO monitors, the latency
	// histogram, the recorder — is built before the cluster that calls it.
	seen := make(map[string]bool, len(cfg.SLOs))
	for _, o := range cfg.SLOs {
		if seen[o.Name] {
			return nil, fmt.Errorf("schedd: duplicate SLO objective %q", o.Name)
		}
		seen[o.Name] = true
		mon, err := obs.NewSLO(o)
		if err != nil {
			return nil, fmt.Errorf("schedd: %w", err)
		}
		s.slos = append(s.slos, mon)
		if o.Kind == obs.ObjectiveLatency {
			s.latencySLOs = append(s.latencySLOs, mon)
		}
	}
	if !cfg.DisableMetrics {
		s.metrics = obs.NewRegistry()
		s.jobLatency = s.metrics.Histogram("schedd_job_latency_seconds",
			"Completed-job response time (submit to complete) in wall seconds.",
			"", obs.LatencyBuckets())
	}
	if !cfg.DisableRecorder {
		rec, err := flight.New(flight.Config{
			Dir:          cfg.RecordDir,
			SegmentBytes: cfg.RecordSegmentBytes,
			MaxSegments:  cfg.RecordMaxSegments,
		})
		if err != nil {
			return nil, fmt.Errorf("schedd: %w", err)
		}
		s.recorder = rec
	}
	// Every shard shares one model-time epoch: cross-shard windows (the
	// merged first-submission-to-last-completion span in Stats) compare
	// timestamps across shards, which is only meaningful on one clock.
	// Virtual mode replaces the scaled wall clock with a deterministic
	// vclock per shard; admission is the cluster's intake either way.
	epoch := time.Now()
	world := func(int) live.World { return live.NewRealTimeFrom(cfg.ClockScale, epoch) }
	if cfg.VirtualClock {
		world = func(int) live.World { return live.NewVirtual() }
	}
	router, err := cluster.New(cluster.Config{
		Platform:     cfg.Platform,
		NewScheduler: func() sim.Scheduler { return sched.New(cfg.Policy) },
		Shards:       cfg.Shards,
		Placement:    cfg.Placement,
		Partition:    cfg.Partition,
		AuditDepth:   auditDepth,
		World:        world,
		Firehose:     &cluster.FirehoseConfig{QueueDepth: cfg.IngestQueueDepth},
		Observer:     s.observeShardEvent,
	})
	if err != nil {
		return nil, fmt.Errorf("schedd: %w", err)
	}
	s.router = router
	if cfg.Steal != cluster.StealNone {
		policy, err := cluster.NewStealPolicy(cfg.Steal)
		if err != nil {
			return nil, fmt.Errorf("schedd: %w", err)
		}
		s.rebalancer = cluster.NewRebalancer(router, policy, cfg.StealInterval)
		if cfg.Logger != nil {
			s.rebalancer.SetLogger(cfg.Logger)
		}
	}
	if s.metrics != nil {
		s.registerMetrics()
	}
	if s.recorder != nil {
		if a := router.Audit(); a != nil {
			a.SetSink(s.recorder.AppendDecision)
		}
		if meta, err := json.Marshal(map[string]any{
			"service":     "schedd",
			"policy":      cfg.Policy,
			"shards":      cfg.Shards,
			"slaves":      cfg.Platform.M(),
			"placement":   cfg.Placement,
			"partition":   string(cfg.Partition),
			"clock_scale": cfg.ClockScale,
		}); err == nil {
			s.recorder.AppendMeta(meta)
		}
	}
	s.mux = http.NewServeMux()
	s.registerRoutes()
	if s.recorder != nil && s.metrics != nil {
		interval := cfg.SnapshotInterval
		if interval <= 0 {
			interval = 5 * time.Second
		}
		s.startSnapshots(interval)
	}
	router.Start()
	if s.rebalancer != nil {
		s.rebalancer.Start()
	}
	return s, nil
}

// registerMetrics adds the scrape-time families to the /metrics
// registry, behind the job-latency histogram New created for the tap.
// Population counters are Func metrics over the runtimes' lock-free
// progress counters, read from the one per-shard sample gather takes —
// zero additional cost on the serving path.
func (s *Server) registerMetrics() {
	r := s.metrics
	for _, sh := range s.router.Shards() {
		idx := sh.Index()
		labels := obs.Labels("shard", strconv.Itoa(idx))
		r.CounterFunc("schedd_jobs_submitted_total", "Jobs accepted, by shard (stolen jobs count on both source and destination).",
			labels, func() float64 { return float64(s.loads[idx].Admitted) })
		r.CounterFunc("schedd_jobs_dispatched_total", "Jobs sent to a slave, by shard.",
			labels, func() float64 { return float64(s.loads[idx].Dispatched) })
		r.CounterFunc("schedd_jobs_completed_total", "Jobs completed, by shard.",
			labels, func() float64 { return float64(s.loads[idx].Completed) })
		r.CounterFunc("schedd_jobs_stolen_total", "Jobs retracted by cross-shard steals, by source shard.",
			labels, func() float64 { return float64(s.loads[idx].Retracted) })
		r.GaugeFunc("schedd_queue_depth", "Accepted-but-undispatched backlog, intake included, by shard.",
			labels, func() float64 { return float64(queueDepth(s.loads[idx], s.intake.ShardQueued[idx])) })
		r.GaugeFunc("schedd_slaves_live", "Slaves not declared down, by shard.",
			labels, func() float64 { return float64(sh.LiveSlaves()) })
	}
	r.GaugeFunc("schedd_uptime_seconds", "Wall seconds since the service started.",
		"", s.uptime)
	r.GaugeFunc("schedd_draining", "1 while the service is draining, else 0.",
		"", func() float64 {
			if s.router.Draining() {
				return 1
			}
			return 0
		})
	r.CounterFunc("schedd_migrations_jobs_total", "Jobs migrated between shards.",
		"", func() float64 { return float64(s.router.Stolen()) })
	s.migLatency = r.Histogram("schedd_migration_latency_seconds",
		"Wall latency of one executed migration (retract through re-home).",
		"", obs.LatencyBuckets())
	s.router.OnMigrate(func(_ int, latency float64) {
		s.migLatency.Observe(latency)
	})
	if a := s.router.Audit(); a != nil {
		r.CounterFunc("schedd_decisions_dropped_total", "Audit decisions overwritten in the bounded ring.",
			"", func() float64 { return float64(a.Dropped()) })
	}
	if b := s.rebalancer; b != nil {
		r.CounterFunc("schedd_steal_passes_total", "Rebalancer planning passes.",
			"", func() float64 { return float64(b.Passes()) })
		r.CounterFunc("schedd_steal_moved_total", "Jobs moved by the rebalancer.",
			"", func() float64 { return float64(b.Moved()) })
		r.GaugeFunc("schedd_steal_last_pass_age_seconds", "Age of the last rebalancer pass (-1 before the first).",
			"", func() float64 {
				last, ok := b.LastPass()
				if !ok {
					return -1
				}
				return time.Since(last).Seconds()
			})
	}
	for _, m := range s.slos {
		m := m
		obj := m.Objective()
		for _, w := range m.Windows() {
			w := w
			r.GaugeFunc("schedd_slo_burn_rate",
				"Error-budget burn rate, by objective and window (1.0 spends the budget exactly over the window; above 1 the objective is being missed).",
				obs.Labels("objective", obj.Name, "window_seconds", strconv.FormatFloat(w, 'g', -1, 64)),
				func() float64 { return m.BurnRate(s.sloNow(), w) })
		}
		r.CounterFunc("schedd_slo_events_good_total", "Events within the objective, by objective.",
			obs.Labels("objective", obj.Name), func() float64 { g, _ := m.Totals(); return float64(g) })
		r.CounterFunc("schedd_slo_events_total", "Events measured against the objective, by objective.",
			obs.Labels("objective", obj.Name), func() float64 { _, t := m.Totals(); return float64(t) })
	}
	if rec := s.recorder; rec != nil {
		r.CounterFunc("schedd_flight_frames_total", "Frames journaled by the flight recorder.",
			"", func() float64 { return float64(rec.Stats().Frames) })
		r.CounterFunc("schedd_flight_segments_dropped_total", "Sealed flight segments discarded by the bounded ring.",
			"", func() float64 { return float64(rec.Stats().SegmentsDropped) })
		r.CounterFunc("schedd_flight_segments_unwritten_total", "Sealed flight segments whose file was dropped because the disk writer's queue was full.",
			"", func() float64 { return float64(rec.Stats().SegmentsUnwritten) })
	}
	r.CounterFunc("schedd_watch_events_dropped_total", "Watch-stream events dropped on slow subscribers.",
		"", func() float64 { return float64(s.watch.dropped.Load()) })
	r.GaugeFunc("schedd_firehose_queue_depth", "Enqueued-but-not-yet-admitted jobs across all intake shards.",
		"", func() float64 { return float64(s.intake.Queued) })
	for _, sh := range s.router.Shards() {
		idx := sh.Index()
		r.GaugeFunc("schedd_firehose_shard_queued", "Enqueued-but-not-yet-admitted jobs, by intake shard.",
			obs.Labels("shard", strconv.Itoa(idx)),
			func() float64 { return float64(s.intake.ShardQueued[idx]) })
	}
	r.CounterFunc("schedd_firehose_slab_gets_total", "Admission-slab checkouts from the intake slab pool.",
		"", func() float64 { return float64(s.intake.SlabGets) })
	r.CounterFunc("schedd_firehose_slab_hits_total", "Admission-slab checkouts served by recycling (the rest allocated).",
		"", func() float64 { return float64(s.intake.SlabHits) })
	r.CounterFunc("schedd_firehose_slab_drops_total", "Drained slabs discarded because the recycle pool was full.",
		"", func() float64 { return float64(s.intake.SlabDrops) })
}

// queueDepth is one shard's accepted-but-undispatched backlog: the jobs
// its runtime holds undispatched plus those still waiting in its intake
// queue. It is the one definition behind /healthz, /readyz, /v1/stats
// and schedd_queue_depth, and the per-shard term of
// cluster.Router.Pending. Every reader samples the intake before the
// loads, as Pending does, so a slab moving between the two is counted
// twice rather than not at all.
func queueDepth(l live.Load, intakeQueued int64) int {
	return l.QueueDepth() + int(intakeQueued)
}

// gather renders the metrics registry through write (WritePrometheus
// or WriteJSON). Under scrapeMu it first samples the intake and every
// shard's Load — lock-free and internally monotone — once each, and
// every Func reader renders from those samples: within one scrape
// completed ≤ dispatched ≤ submitted holds per shard, and no scrape
// takes a tracker lock against a master's write lock. Rendering into
// memory keeps a slow client from holding the scrape lock.
func (s *Server) gather(write func(io.Writer) error) []byte {
	s.scrapeMu.Lock()
	defer s.scrapeMu.Unlock()
	s.intake = s.router.FirehoseStats()
	s.loads = s.router.Loads()
	var buf bytes.Buffer
	_ = write(&buf) // the registry only passes on the writer's errors; a Buffer has none
	return buf.Bytes()
}

// counted wraps a handler with its per-route request counter and
// latency histogram, and feeds availability SLOs from the captured
// response status (< 500 is good). With metrics off and no availability
// objectives it returns the handler unchanged.
func (s *Server) counted(route string, h http.HandlerFunc) http.HandlerFunc {
	var availSLOs []*obs.SLO
	for _, m := range s.slos {
		if m.Objective().Kind == obs.ObjectiveAvailability {
			availSLOs = append(availSLOs, m)
		}
	}
	if s.metrics == nil && len(availSLOs) == 0 {
		return h
	}
	var c *obs.Counter
	var dur *obs.Histogram
	if s.metrics != nil {
		labels := obs.Labels("route", route)
		c = s.metrics.Counter("schedd_http_requests_total",
			"HTTP requests served, by route.", labels)
		dur = s.metrics.Histogram("schedd_http_request_duration_seconds",
			"HTTP request handling latency in wall seconds, by route.", labels,
			obs.LatencyBuckets())
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if c != nil {
			c.Inc()
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		begin := time.Now()
		h(sw, r)
		if dur != nil {
			dur.Observe(time.Since(begin).Seconds())
		}
		if len(availSLOs) > 0 {
			now := s.sloNow()
			for _, m := range availSLOs {
				m.Record(now, sw.status < http.StatusInternalServerError)
			}
		}
	}
}

// route is one row of the service's HTTP surface; the registered
// pattern is method+" "+path.
type route struct {
	// method is the HTTP method ("" registers the bare path, matching
	// every method — only the pprof prefix handler needs that).
	method string
	// path is the pattern's path (the API proper lives under /v1).
	path string
	// name labels the route in per-route metrics; "" skips the counted
	// wrapper (pprof brings its own handlers).
	name string
	h    http.HandlerFunc
}

// routes assembles the one route table: the /v1 surface, the infra
// probes (never versioned — load balancers and scrapers hardcode them),
// and the opt-in surfaces present only when their subsystem is on.
func (s *Server) routes() []route {
	rs := []route{
		{"POST", "/v1/jobs", "jobs", s.handleSubmit},
		{"POST", "/v1/jobs:stream", "stream", s.handleStream},
		{"GET", "/v1/jobs/{id}", "job", s.handleJob},
		{"GET", "/v1/jobs/{id}/trace", "trace", s.handleTrace},
		{"GET", "/v1/stats", "stats", s.handleStats},
		{"GET", "/v1/decisions", "decisions", s.handleDecisions},
		{"GET", "/v1/slo", "slo", s.handleSLO},
		{"GET", "/v1/watch", "watch", s.handleWatch},
		{"GET", "/healthz", "healthz", s.handleHealthz},
		{"GET", "/readyz", "readyz", s.handleReadyz},
	}
	if s.recorder != nil {
		rs = append(rs, route{"GET", "/v1/flight", "flight", s.handleFlight})
	}
	if s.metrics != nil {
		rs = append(rs,
			route{"GET", "/metrics", "metrics", s.handleMetrics},
			route{"GET", "/debug/vars", "vars", s.handleVars})
	}
	if s.cfg.Pprof {
		rs = append(rs,
			route{"", "/debug/pprof/", "", pprof.Index},
			route{"", "/debug/pprof/cmdline", "", pprof.Cmdline},
			route{"", "/debug/pprof/profile", "", pprof.Profile},
			route{"", "/debug/pprof/symbol", "", pprof.Symbol},
			route{"", "/debug/pprof/trace", "", pprof.Trace})
	}
	return rs
}

// pattern is the ServeMux pattern the row registers under.
func (rt route) pattern() string {
	if rt.method == "" {
		return rt.path
	}
	return rt.method + " " + rt.path
}

// registerRoutes mounts the route table on the mux.
func (s *Server) registerRoutes() {
	for _, rt := range s.routes() {
		h := rt.h
		if rt.name != "" {
			h = s.counted(rt.name, h)
		}
		s.mux.HandleFunc(rt.pattern(), h)
	}
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Policy returns the serving policy's name.
func (s *Server) Policy() string { return s.cfg.Policy }

// Router exposes the underlying cluster (read-only use).
func (s *Server) Router() *cluster.Router { return s.router }

// Counts returns the merged job counters over every shard. A migrated
// job is submitted on two shards (source, then destination) but stolen
// on the source, so each shard contributes Submitted − Stolen and every
// job counts exactly once — on the shard that ultimately serves it.
// The merged Stolen field reports total migrations for observability;
// it is NOT part of the population identity (which is Submitted ==
// Completed after a drain, stealing or not).
func (s *Server) Counts() live.Counts {
	var total live.Counts
	for _, l := range s.router.Loads() {
		total.Submitted += l.Admitted - l.Retracted
		total.Dispatched += l.Dispatched
		total.Completed += l.Completed
		total.Stolen += l.Retracted
	}
	return total
}

// Drain gracefully shuts the cluster down: the rebalancer stops first
// (no new migrations begin), then new submissions are rejected with
// 503, in-flight migrations finish re-homing, every outstanding job on
// every shard completes, the slaves exit. It blocks until all shards
// have fully drained and returns the joined error, if any.
func (s *Server) Drain() error {
	s.stopSnapshots()
	if s.rebalancer != nil {
		s.rebalancer.Stop()
	}
	err := s.router.Drain()
	// Close the recorder last so the drain's own completions are the
	// recording's final frames.
	if cerr := s.recorder.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// SubmitRequest is the POST /v1/jobs body and one line of POST
// /v1/jobs:stream. An empty body submits one nominal job.
type SubmitRequest struct {
	// Count is the number of jobs to submit (default 1).
	Count int `json:"count"`
	// CommScale and CompScale perturb the jobs' actual costs (0 means 1).
	CommScale float64 `json:"comm_scale"`
	CompScale float64 `json:"comp_scale"`
}

// maxScale bounds comm_scale and comp_scale: a scale multiplies a model
// cost, and one large enough to overflow the clock arithmetic (JSON
// carries up to 1e308) would turn completions into +Inf.
const maxScale = 1e6

// decodeSubmit parses one SubmitRequest — a POST /v1/jobs body or a
// jobs:stream line. Empty input is the documented one nominal job.
func decodeSubmit(raw []byte) (SubmitRequest, error) {
	req := SubmitRequest{Count: 1}
	if len(raw) == 0 {
		return req, nil
	}
	err := json.Unmarshal(raw, &req)
	return req, err
}

// validate is the one SubmitRequest check behind both submission
// endpoints: it applies the count default and rejects a count outside
// [1, MaxBatch] or a scale outside [0, maxScale].
func (s *Server) validate(req *SubmitRequest) error {
	if req.Count == 0 {
		req.Count = 1
	}
	if req.Count < 0 || req.Count > s.cfg.MaxBatch {
		return fmt.Errorf("count %d outside [1, %d]", req.Count, s.cfg.MaxBatch)
	}
	for _, scale := range [...]float64{req.CommScale, req.CompScale} {
		if scale < 0 || scale > maxScale {
			return fmt.Errorf("scales must be non-negative and at most %g", maxScale)
		}
	}
	return nil
}

// SubmitResponse echoes the assigned cluster-global job IDs.
type SubmitResponse struct {
	IDs []int `json:"ids"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, streamMaxLine))
	if err == nil {
		req, err = decodeSubmit(body)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if err := s.validate(&req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	base, err := s.router.SubmitRange(live.JobSpec{CommScale: req.CommScale, CompScale: req.CompScale}, req.Count)
	if err != nil {
		if errors.Is(err, cluster.ErrDraining) {
			httpError(w, http.StatusServiceUnavailable, "draining: no new jobs accepted")
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	ids := make([]int, req.Count)
	for i := range ids {
		ids[i] = base + i
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{IDs: ids})
}

// JobResponse is the GET /v1/jobs/{id} body: the tracked lifecycle (global
// job ID, platform-global slave index) plus the shard that served it and
// the wall-clock latency for completed jobs.
type JobResponse struct {
	live.JobInfo
	// Shard is the shard the job was placed on.
	Shard int `json:"shard"`
	// LatencySeconds is the wall-clock response time (submit → complete),
	// only present once done.
	LatencySeconds float64 `json:"latency_seconds,omitempty"`
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job id")
		return
	}
	info, ok := s.router.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown job %d", id))
		return
	}
	shard, _ := s.router.ShardOf(id)
	resp := JobResponse{JobInfo: info, Shard: shard}
	if info.State == live.StateDone {
		resp.LatencySeconds = info.Latency() / s.cfg.ClockScale
	}
	writeJSON(w, http.StatusOK, resp)
}

// LatencyStats summarizes completed-job response times in wall seconds.
type LatencyStats struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
}

// ShardStats is one shard's section of the GET /v1/stats body. Slave
// indices — in Slaves and inside Trace — are platform-global.
type ShardStats struct {
	Shard  int         `json:"shard"`
	Slaves []int       `json:"slaves"`
	Jobs   live.Counts `json:"jobs"`
	// QueueDepth is the shard's accepted-but-undispatched backlog right
	// now, intake included (live, unlike the completed-job statistics).
	QueueDepth int `json:"queue_depth"`
	// IntakeQueued is the part of QueueDepth still waiting in the shard's
	// intake queue (absent when zero).
	IntakeQueued         int64         `json:"intake_queued,omitempty"`
	ThroughputJobsPerSec float64       `json:"throughput_jobs_per_sec"`
	LatencySeconds       *LatencyStats `json:"latency_seconds,omitempty"`
	// StageSeconds decomposes completed-job latency into the lifecycle
	// stages the one-port model defines (queue-wait, transfer,
	// slave-wait, service), in wall seconds — derived from the same span
	// timestamps GET /v1/jobs/{id}/trace serves.
	StageSeconds *obs.StageBreakdown `json:"stage_seconds,omitempty"`
	Trace        *trace.Report       `json:"trace,omitempty"`
}

// StealStats is the GET /v1/stats stealing stanza, present only when the
// service runs a rebalancer.
type StealStats struct {
	// Policy is the steal policy's registry name.
	Policy string `json:"policy"`
	// IntervalSeconds is the rebalancer's pass interval in wall seconds.
	IntervalSeconds float64 `json:"interval_seconds"`
	// Passes counts planning passes run so far.
	Passes int64 `json:"passes"`
	// JobsMoved counts jobs migrated between shards so far.
	JobsMoved int64 `json:"jobs_moved"`
}

// StatsResponse is the GET /v1/stats body: the merged cluster view at the
// top level (wire-compatible with the single-runtime service: jobs,
// throughput, latency and trace keep their PR-3 names and meaning) plus
// one section per shard. The cluster's latency and stage summaries are
// taken over every shard's completed jobs as one sample, so its
// percentiles are exact however different the shards are. Merged job
// counters subtract each shard's stolen jobs so a migrated job counts
// once (see Server.Counts); per-shard sections keep the raw counters,
// stolen included.
type StatsResponse struct {
	Policy        string  `json:"policy"`
	Slaves        int     `json:"slaves"`
	Shards        int     `json:"shards"`
	Placement     string  `json:"placement"`
	Partition     string  `json:"partition"`
	ClockScale    float64 `json:"clock_scale"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	// Jobs are the merged counters over every shard.
	Jobs live.Counts `json:"jobs"`
	// ThroughputJobsPerSec is merged completions per wall second over the
	// union window from the cluster's first submission to its last
	// completion.
	ThroughputJobsPerSec float64       `json:"throughput_jobs_per_sec"`
	LatencySeconds       *LatencyStats `json:"latency_seconds,omitempty"`
	// StageSeconds is the cluster-wide per-stage latency decomposition
	// over every completed job, in wall seconds.
	StageSeconds *obs.StageBreakdown `json:"stage_seconds,omitempty"`
	Trace        *trace.Report       `json:"trace,omitempty"`
	// Steal reports the rebalancer's progress; absent when stealing is
	// off.
	Steal *StealStats `json:"steal,omitempty"`
	// Recorder reports the flight recorder's accounting (frames, bytes,
	// retained and dropped segments); absent with DisableRecorder.
	Recorder *RecorderStats `json:"recorder,omitempty"`
	// Watch reports the /v1/watch SSE hub: current subscribers and events
	// dropped on slow ones.
	Watch *WatchStats `json:"watch,omitempty"`
	// Firehose reports the intake's backpressure state (queue depth, per-
	// shard backlog, slab-pool effectiveness).
	Firehose *FirehoseStatsResponse `json:"firehose,omitempty"`
	// PerShard holds one section per shard, in shard order.
	PerShard []ShardStats `json:"per_shard"`
}

// RecorderStats is the GET /v1/stats flight-recorder stanza.
type RecorderStats struct {
	flight.Stats
	// Dir is the segment persistence directory ("" when memory-only).
	Dir string `json:"dir,omitempty"`
}

// WatchStats is the GET /v1/stats watch-hub stanza.
type WatchStats struct {
	Subscribers int    `json:"subscribers"`
	Dropped     uint64 `json:"dropped"`
}

// FirehoseStatsResponse is the GET /v1/stats intake stanza: how much
// backlog producers have parked in the bounded intake (queued vs the
// bound producers block on) and how the admission-slab pool is holding
// up (drops mean slabs fell to the GC because the recycle stack was
// full).
type FirehoseStatsResponse struct {
	QueueBound  int     `json:"queue_bound"`
	Queued      int     `json:"queued"`
	ShardQueued []int64 `json:"shard_queued"`
	SlabGets    int64   `json:"slab_gets"`
	SlabHits    int64   `json:"slab_hits"`
	SlabDrops   int64   `json:"slab_drops"`
}

// Stats assembles the current service statistics — one consistent
// tracker snapshot per shard, then the cluster view over all of them
// (also used by the benchmark without going through HTTP decoding).
func (s *Server) Stats() StatsResponse {
	shards := s.router.Shards()
	resp := StatsResponse{
		Policy:        s.cfg.Policy,
		Slaves:        s.cfg.Platform.M(),
		Shards:        len(shards),
		Placement:     s.cfg.Placement,
		Partition:     string(s.cfg.Partition),
		ClockScale:    s.cfg.ClockScale,
		UptimeSeconds: s.uptime(),
		Draining:      s.router.Draining(),
	}
	snaps := make([]live.Snapshot, len(shards))
	completed := 0
	for i, sh := range shards {
		snaps[i] = sh.Tracker().Stats()
		completed += len(snaps[i].Records)
	}
	// One sample: every completed job's wall latency, shard by shard in
	// job-ID order. Each shard's section summarizes its own stretch, which
	// sorts it; the cluster view sums the sample in that order and reads
	// its percentiles off the merged sorted stretches.
	lat := make([]float64, 0, completed)
	total := 0.0
	var runs [][]float64
	var recParts [][]core.Record
	var traceParts []trace.Report
	first, last := 0.0, 0.0
	windowSet := false
	fs := s.router.FirehoseStats()
	for i, sh := range shards {
		snap := snaps[i]
		sec := ShardStats{
			Shard:        sh.Index(),
			Slaves:       sh.Slaves(),
			Jobs:         snap.Counts,
			QueueDepth:   queueDepth(sh.Load(), fs.ShardQueued[i]),
			IntakeQueued: fs.ShardQueued[i],
		}
		resp.Jobs.Submitted += snap.Counts.Submitted - snap.Counts.Stolen
		resp.Jobs.Dispatched += snap.Counts.Dispatched
		resp.Jobs.Completed += snap.Counts.Completed
		resp.Jobs.Stolen += snap.Counts.Stolen
		if len(snap.Records) > 0 {
			b := obs.Breakdown(snap.Records).Scale(s.cfg.ClockScale)
			sec.StageSeconds = &b
			recParts = append(recParts, snap.Records)
			lo := len(lat)
			for _, rec := range snap.Records {
				l := rec.Flow() / s.cfg.ClockScale
				lat = append(lat, l)
				total += l
			}
			sum := stats.SummarizeInPlace(lat[lo:])
			sec.LatencySeconds = &LatencyStats{Mean: sum.Mean, P50: sum.P50, P95: sum.P95, P99: sum.P99}
			runs = append(runs, lat[lo:])
		}
		if snap.Counts.Completed > 0 {
			if snap.Last > snap.First {
				sec.ThroughputJobsPerSec = float64(snap.Counts.Completed) / ((snap.Last - snap.First) / s.cfg.ClockScale)
			}
			if !windowSet || snap.First < first {
				first = snap.First
			}
			if snap.Last > last {
				last = snap.Last
			}
			windowSet = true
		}
		resp.PerShard = append(resp.PerShard, sec)
	}
	if len(lat) > 0 {
		// Stage durations are differences of the span timestamps, so they
		// are taken before the trace sections rebase those timestamps.
		b := obs.Breakdown(recParts...).Scale(s.cfg.ClockScale)
		resp.StageSeconds = &b
		all := mergeSorted(runs)
		resp.LatencySeconds = &LatencyStats{
			Mean: total / float64(len(all)),
			P50:  stats.Percentile(all, 0.50),
			P95:  stats.Percentile(all, 0.95),
			P99:  stats.Percentile(all, 0.99),
		}
	}
	for i, sh := range shards {
		recs := snaps[i].Records
		if len(recs) == 0 {
			continue
		}
		// Rebase model time to the shard's first submission: a daemon
		// may idle before its first job, and an un-rebased makespan
		// (hence every utilization figure) would be dominated by that
		// offset rather than by the served work.
		if base := snaps[i].First; base > 0 {
			for j := range recs {
				recs[j].Release -= base
				recs[j].SendStart -= base
				recs[j].Arrive -= base
				recs[j].Start -= base
				recs[j].Complete -= base
			}
		}
		report := trace.Analyze(core.Schedule{
			Instance: core.Instance{Platform: sh.Platform().Clone()},
			Records:  recs,
		})
		// Relabel shard-local slave indices to platform-global ones so
		// the per-shard section and the merged view both speak global
		// indices.
		for j := range report.Slaves {
			report.Slaves[j].Slave = sh.GlobalSlave(report.Slaves[j].Slave)
		}
		resp.PerShard[i].Trace = &report
		traceParts = append(traceParts, report)
	}
	if len(traceParts) > 0 {
		merged := trace.MergeReports(traceParts...)
		resp.Trace = &merged
	}
	if resp.Jobs.Completed > 0 && last > first {
		resp.ThroughputJobsPerSec = float64(resp.Jobs.Completed) / ((last - first) / s.cfg.ClockScale)
	}
	if b := s.rebalancer; b != nil {
		resp.Steal = &StealStats{
			Policy:          b.Policy(),
			IntervalSeconds: b.Interval().Seconds(),
			Passes:          b.Passes(),
			JobsMoved:       b.Moved(),
		}
	}
	if rec := s.recorder; rec != nil {
		resp.Recorder = &RecorderStats{Stats: rec.Stats(), Dir: s.cfg.RecordDir}
	}
	resp.Watch = &WatchStats{
		Subscribers: s.watch.subscribers(),
		Dropped:     s.watch.dropped.Load(),
	}
	resp.Firehose = &FirehoseStatsResponse{
		QueueBound:  fs.QueueBound,
		Queued:      fs.Queued,
		ShardQueued: fs.ShardQueued,
		SlabGets:    fs.SlabGets,
		SlabHits:    fs.SlabHits,
		SlabDrops:   fs.SlabDrops,
	}
	return resp
}

// mergeSorted merges sorted runs into one sorted slice, two runs at a
// time.
func mergeSorted(runs [][]float64) []float64 {
	for len(runs) > 1 {
		a, b := runs[0], runs[1]
		out := make([]float64, 0, len(a)+len(b))
		for len(a) > 0 && len(b) > 0 {
			if b[0] < a[0] {
				out, b = append(out, b[0]), b[1:]
			} else {
				out, a = append(out, a[0]), a[1:]
			}
		}
		runs = append(runs[2:], append(append(out, a...), b...))
	}
	return runs[0]
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// HealthResponse is the GET /healthz body. QueueDepth reports the
// cluster-wide accepted-but-undispatched backlog, intake included (per
// shard in ShardQueueDepths).
type HealthResponse struct {
	OK               bool    `json:"ok"`
	Policy           string  `json:"policy"`
	Shards           int     `json:"shards"`
	UptimeSeconds    float64 `json:"uptime_seconds"`
	Draining         bool    `json:"draining"`
	QueueDepth       int     `json:"queue_depth"`
	ShardQueueDepths []int   `json:"shard_queue_depths"`
	// Steals is the total number of jobs migrated between shards (0
	// forever when stealing is off).
	Steals int `json:"steals"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	depths := s.queueDepths()
	total := 0
	for _, d := range depths {
		total += d
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		OK:               true,
		Policy:           s.cfg.Policy,
		Shards:           len(s.router.Shards()),
		UptimeSeconds:    s.uptime(),
		Draining:         s.router.Draining(),
		QueueDepth:       total,
		ShardQueueDepths: depths,
		Steals:           s.router.Stolen(),
	})
}

// ReadyResponse is the GET /readyz body. Unlike /healthz (liveness:
// "the process is up and serving HTTP"), readiness answers "should a
// load balancer route new work here" — false the moment draining
// begins, with per-shard drain state and the rebalancer's last-scan age
// as the supporting detail.
type ReadyResponse struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
	// Shards reports each shard's routable state.
	Shards []ShardReady `json:"shards"`
	// StealLastPassAgeSeconds is how long ago the rebalancer's last
	// planning pass finished; -1 before the first pass, absent when
	// stealing is off. A large age under load means the rebalancer loop
	// is wedged.
	StealLastPassAgeSeconds *float64 `json:"steal_last_pass_age_seconds,omitempty"`
	// SLO is the burn-rate report, informational supporting detail:
	// readiness stays drain-based (a burning SLO is an alert, not a
	// reason to stop routing — removing capacity would make it worse).
	// Absent when no objectives are configured.
	SLO *SLOResponse `json:"slo,omitempty"`
}

// ShardReady is one shard's row of the readiness report.
type ShardReady struct {
	Shard      int  `json:"shard"`
	QueueDepth int  `json:"queue_depth"`
	LiveSlaves int  `json:"live_slaves"`
	Draining   bool `json:"draining"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	draining := s.router.Draining()
	resp := ReadyResponse{Ready: !draining, Draining: draining}
	depths := s.queueDepths()
	for i, sh := range s.router.Shards() {
		resp.Shards = append(resp.Shards, ShardReady{
			Shard:      sh.Index(),
			QueueDepth: depths[i],
			LiveSlaves: sh.LiveSlaves(),
			Draining:   draining,
		})
	}
	if b := s.rebalancer; b != nil {
		age := -1.0
		if last, ok := b.LastPass(); ok {
			age = time.Since(last).Seconds()
		}
		resp.StealLastPassAgeSeconds = &age
	}
	if len(s.slos) > 0 {
		slo := s.sloStatus()
		resp.SLO = &slo
	}
	status := http.StatusOK
	if draining {
		// 503 so a load balancer's readiness probe stops routing here
		// while the daemon finishes its backlog.
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// queueDepths samples every shard's queueDepth.
func (s *Server) queueDepths() []int {
	queued := s.router.FirehoseStats().ShardQueued
	out := make([]int, len(queued))
	for i, l := range s.router.Loads() {
		out[i] = queueDepth(l, queued[i])
	}
	return out
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(s.gather(s.metrics.WritePrometheus))
}

func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(s.gather(s.metrics.WriteJSON))
}

// TraceResponse is the GET /v1/jobs/{id}/trace body: the job's span tree.
// Span times are model seconds on the serving clock (divide by
// clock_scale for wall seconds); Stages holds the lifecycle intervals
// observed so far, so an in-flight job's trace grows stage by stage and
// a completed job's trace is the full four-stage decomposition.
type TraceResponse struct {
	Job        int      `json:"job"`
	Shard      int      `json:"shard"`
	State      string   `json:"state"`
	ClockScale float64  `json:"clock_scale"`
	Span       obs.Span `json:"span"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job id")
		return
	}
	info, ok := s.router.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown job %d", id))
		return
	}
	shard, _ := s.router.ShardOf(id)
	writeJSON(w, http.StatusOK, TraceResponse{
		Job:        id,
		Shard:      shard,
		State:      info.State,
		ClockScale: s.cfg.ClockScale,
		Span:       spanFromInfo(info),
	})
}

// spanFromInfo builds the span tree for any lifecycle state. A
// completed job decomposes into the full four stages (the same pure
// function the conformance suite pins deterministic); an in-flight job
// carries the stages with both endpoints observed so far.
func spanFromInfo(info live.JobInfo) obs.Span {
	if info.State == live.StateDone {
		return obs.FromRecord(info.Record())
	}
	sp := obs.Span{Job: info.ID, Slave: info.Slave, Start: info.Submitted, End: info.Submitted}
	add := func(name string, start, end float64) {
		sp.Stages = append(sp.Stages, obs.Stage{Name: name, Start: start, End: end})
		sp.End = end
	}
	switch info.State {
	case live.StateStolen:
		// The source-side lifecycle ends at retraction; the job's new
		// shard restarts it (GET /v1/jobs/{id} follows the migration, so
		// this branch is only visible mid-migration).
		add(obs.StageQueue, info.Submitted, info.StolenAt)
	case live.StateSent:
		add(obs.StageQueue, info.Submitted, info.SendStart)
		if info.Arrive >= info.SendStart && info.Arrive > 0 {
			add(obs.StageTransfer, info.SendStart, info.Arrive)
		}
	}
	return sp
}

// DecisionsResponse is the GET /v1/decisions body: the newest audit
// entries (placements with per-shard scores, steal plans, executed
// migrations), newest first. ?limit= selects how many (default 50,
// capped at 1000); a value that is not a positive integer is a 400.
type DecisionsResponse struct {
	// Enabled is false when the service runs with auditing off
	// (AuditDepth < 0); Decisions is then always empty.
	Enabled bool `json:"enabled"`
	// Dropped counts audit entries overwritten by the bounded ring.
	Dropped uint64 `json:"dropped"`
	// Decisions are the newest entries, newest first.
	Decisions []obs.Decision `json:"decisions"`
}

// Bounds on GET /v1/decisions responses: without an explicit limit the
// newest decisionsDefaultLimit entries come back; an explicit limit is
// capped at decisionsMaxLimit so a scrape can never ask for an
// unbounded copy of the ring.
const (
	decisionsDefaultLimit = 50
	decisionsMaxLimit     = 1000
)

// queryLimit parses the bounds-checked ?limit= of a list endpoint. An
// absent value yields def; a value above max is silently capped;
// anything that is not a positive integer is an error. Shared by every
// list endpoint so "?limit=" means one thing service-wide.
func queryLimit(r *http.Request, def, max int) (int, error) {
	q := r.URL.Query().Get("limit")
	if q == "" {
		return def, nil
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 1 {
		return 0, errors.New("bad limit: want a positive integer")
	}
	return min(v, max), nil
}

func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	n, err := queryLimit(r, decisionsDefaultLimit, decisionsMaxLimit)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	a := s.router.Audit()
	resp := DecisionsResponse{Enabled: a != nil, Dropped: a.Dropped()}
	if ds := a.Recent(n); ds != nil {
		resp.Decisions = ds
	} else {
		resp.Decisions = []obs.Decision{}
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
