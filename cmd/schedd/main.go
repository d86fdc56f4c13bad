// Command schedd is the streaming scheduling daemon: it serves a
// master–slave platform over HTTP/JSON with any registered scheduling
// policy (the paper's seven heuristics or the speed-oblivious SO-LS) as
// the serving discipline. The platform can be partitioned across a
// fleet of masters (-shards): each shard owns a slice of the slaves
// behind its own one-port master, and incoming jobs are routed to a
// shard by the -placement policy, multiplying the paper's structural
// one-port bottleneck by the shard count.
//
// Endpoints (the API is versioned under /v1; the infra probes are not):
//
//	POST /v1/jobs             {"count":8,"comm_scale":1,"comp_scale":1} → {"ids":[...]}
//	POST /v1/jobs:stream      NDJSON bulk ingest: one SubmitRequest per line,
//	                          one ack per line back ({"line":N,"base":B,"count":C})
//	GET  /v1/jobs/{id}        one job's lifecycle, owning shard and latency
//	GET  /v1/jobs/{id}/trace  the job's span tree (queue/transfer/slave-wait/service)
//	GET  /v1/stats            merged cluster view + one section per shard
//	GET  /v1/decisions        recent placement/steal/migration audit entries
//	GET  /v1/slo              SLO burn-rate report (configure with -slo)
//	GET  /v1/watch            Server-Sent Events stream of lifecycle events
//	GET  /v1/flight           the flight recorder's raw recording (schedctl export)
//	GET  /metrics             Prometheus text exposition (disable with -metrics=false)
//	GET  /debug/vars          the same registry as flat JSON
//	GET  /healthz             liveness + cluster and per-shard queue depths
//	GET  /readyz              readiness: 503 while draining; shard drain state
//	GET  /debug/pprof/        Go profiling surface (opt-in via -pprof)
//
// The platform comes from -slaves "c:p,c:p,..." (explicit per-slave
// costs) or from -class/-m/-seed (a random platform drawn exactly like
// the experiment harness does). -shards partitions it (-partition
// striped|balanced); -placement picks round-robin, least-loaded,
// het-aware or pinned routing. -steal turns on the cross-shard
// rebalancer (threshold or het-aware; every -steal-interval it migrates
// pending jobs from overloaded shards to underloaded ones).
// -clock-scale compresses model time: at 1000, a platform calibrated in
// paper seconds serves jobs a thousand times faster than nominal.
// -virtual goes further: every shard runs on a deterministic virtual
// clock (pure-throughput mode — ingest is bounded by placement and
// admission cost alone). On either clock every job crosses the
// cluster's intake, and -ingest-queue bounds its accepted-but-unadmitted
// backlog: a submission that finds it full waits for room.
//
// Observability: -metrics (default true) serves the Prometheus text
// exposition and /debug/vars; -audit-depth sizes the decision-audit
// ring (0 disables); -record (default true) runs the flight recorder
// (-record-dir persists segments, -record-segment-bytes and
// -record-segments bound the ring, -snapshot-interval paces journaled
// metric snapshots); -slo configures burn-rate objectives (e.g.
// -slo p99=latency:0.5:0.99,avail=availability:0.999); -pprof opts into
// the Go profiling surface, and -mutexprofile N additionally samples
// lock contention into /debug/pprof/{mutex,block} — the knob that makes
// the router's lock-free read path verifiable against a live daemon;
// -log-level/-log-format configure structured logging (steal plans are
// logged at debug).
//
// On SIGINT/SIGTERM the daemon drains gracefully: new submissions get
// 503, every accepted job on every shard completes, the slaves shut
// down, and only then does the process exit.
//
// Usage:
//
//	schedd -addr :8080 -policy LS -slaves 0.5:2,1:4,2:5 -clock-scale 100
//	schedd -policy SO-LS -class heterogeneous -m 8 -seed 7 \
//	       -shards 4 -placement het-aware -partition balanced
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/schedd"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stderr, stop); err != nil && !errors.Is(err, flag.ErrHelp) {
		os.Exit(1)
	}
}

// run is the daemon: it parses args, serves until a signal arrives on
// stop, then drains. Logs go to stderr; every failure is logged there
// before run returns it.
func run(args []string, stderr io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("schedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	policy := fs.String("policy", "LS", "serving policy: "+strings.Join(sched.ExtendedNames(), ", "))
	slaves := fs.String("slaves", "", "explicit platform as comma-separated c:p pairs, e.g. 0.5:2,1:4,2:5 (overrides -class)")
	class := fs.String("class", "heterogeneous", "random platform class: homogeneous, comm-homogeneous, comp-homogeneous, heterogeneous")
	m := fs.Int("m", 5, "number of slaves for random platforms")
	seed := fs.Int64("seed", 1, "random seed for -class platforms")
	shards := fs.Int("shards", 1, "number of master shards the platform is partitioned across")
	placement := fs.String("placement", cluster.PlacementRoundRobin,
		"shard placement policy: "+strings.Join(cluster.PlacementNames(), ", "))
	partition := fs.String("partition", string(core.PartitionStriped),
		"partition strategy: striped, balanced")
	clockScale := fs.Float64("clock-scale", 1, "model seconds per wall second (speedup of the serving clock)")
	virtual := fs.Bool("virtual", false,
		"pure-throughput mode: every shard on a deterministic virtual clock (forces -clock-scale 1, incompatible with -steal)")
	ingestQueue := fs.Int("ingest-queue", 0,
		"bound on the accepted-but-unadmitted job backlog in the cluster intake; POST /v1/jobs and jobs:stream lines wait while it is full (0: 65536)")
	maxBatch := fs.Int("max-batch", 10000, "largest count accepted by one POST /v1/jobs and by one jobs:stream line")
	steal := fs.String("steal", cluster.StealNone,
		"cross-shard work-stealing policy: "+strings.Join(cluster.StealPolicyNames(), ", "))
	stealInterval := fs.Duration("steal-interval", 50*time.Millisecond,
		"rebalancer pass interval (with -steal threshold|het-aware)")
	metrics := fs.Bool("metrics", true, "serve GET /metrics (Prometheus text) and GET /debug/vars")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in)")
	mutexProfile := fs.Int("mutexprofile", 0,
		"mutex/block profile sampling rate for /debug/pprof/{mutex,block} (0 off; requires -pprof; 1 samples every contention event)")
	auditDepth := fs.Int("audit-depth", 256,
		"decision-audit ring depth behind GET /v1/decisions (0 disables auditing)")
	record := fs.Bool("record", true, "run the flight recorder (GET /v1/flight; export with schedctl)")
	recordDir := fs.String("record-dir", "", "persist flight segments to this directory (empty: memory-only)")
	recordSegBytes := fs.Int("record-segment-bytes", 0, "flight segment size in bytes (0: 1 MiB)")
	recordSegments := fs.Int("record-segments", 0, "flight segments retained (0: 8)")
	snapshotInterval := fs.Duration("snapshot-interval", 5*time.Second,
		"cadence of metric snapshots journaled into the flight recording")
	sloFlag := fs.String("slo", "",
		"comma-separated SLO objectives, each latency:<threshold-seconds>:<target> or availability:<target>, optionally name=spec (e.g. p99=latency:0.5:0.99,avail=availability:0.999)")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log format: text, json")
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger, err := buildLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(stderr, "schedd:", err)
		return err
	}
	fatal := func(msg string, args ...any) error {
		logger.Error(msg, args...)
		return errors.New(msg)
	}

	if err := sched.Validate(*policy); err != nil {
		return fatal("invalid policy", "err", err)
	}
	// An out-of-range number is an error, never a silent default: zero
	// is legal only where the help text above gives it a meaning.
	for _, f := range []struct {
		name, want string
		bad        bool
	}{
		{"-clock-scale", "positive", !(*clockScale > 0)}, {"-m", "positive", *m < 1},
		{"-shards", "positive", *shards < 1}, {"-max-batch", "positive", *maxBatch < 1},
		{"-steal-interval", "positive", *stealInterval <= 0}, {"-snapshot-interval", "positive", *snapshotInterval <= 0},
		{"-ingest-queue", "non-negative", *ingestQueue < 0}, {"-audit-depth", "non-negative", *auditDepth < 0},
		{"-record-segments", "non-negative", *recordSegments < 0}, {"-mutexprofile", "non-negative", *mutexProfile < 0},
		{"-record-segment-bytes", "0 or at least 1024", *recordSegBytes != 0 && *recordSegBytes < 1024},
	} {
		if f.bad {
			return fatal(f.name + " must be " + f.want)
		}
	}
	pl, err := buildPlatform(*slaves, *class, *m, *seed)
	if err != nil {
		return fatal("invalid platform", "err", err)
	}

	slos, err := parseSLOs(*sloFlag)
	if err != nil {
		return fatal("invalid -slo", "err", err)
	}

	// Mutex/block profiling rides behind the -pprof gate: the samples are
	// only reachable through /debug/pprof/, so a rate without the surface
	// is a misconfiguration, not a silent no-op.
	if *mutexProfile > 0 {
		if !*pprofFlag {
			return fatal("-mutexprofile requires -pprof (the samples are served under /debug/pprof/)")
		}
		runtime.SetMutexProfileFraction(*mutexProfile)
		runtime.SetBlockProfileRate(*mutexProfile)
	}

	// The flag semantics invert into the config's zero-value defaults:
	// -metrics=false disables, -audit-depth 0 disables (config -1).
	cfgAudit := *auditDepth
	if cfgAudit == 0 {
		cfgAudit = -1
	}
	srv, err := schedd.New(schedd.Config{
		Platform:           pl,
		Policy:             *policy,
		Shards:             *shards,
		Placement:          *placement,
		Partition:          core.PartitionStrategy(*partition),
		ClockScale:         *clockScale,
		MaxBatch:           *maxBatch,
		VirtualClock:       *virtual,
		IngestQueueDepth:   *ingestQueue,
		Steal:              *steal,
		StealInterval:      *stealInterval,
		DisableMetrics:     !*metrics,
		Pprof:              *pprofFlag,
		AuditDepth:         cfgAudit,
		DisableRecorder:    !*record,
		RecordDir:          *recordDir,
		RecordSegmentBytes: *recordSegBytes,
		RecordMaxSegments:  *recordSegments,
		SnapshotInterval:   *snapshotInterval,
		SLOs:               slos,
		Logger:             logger,
	})
	if err != nil {
		return fatal("startup failed", "err", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fatal("listen failed", "addr", *addr, "err", err)
	}
	httpServer := newHTTPServer(srv.Handler())
	logger.Info("serving",
		"policy", *policy,
		"addr", fmt.Sprintf("http://%s", ln.Addr()),
		"platform", fmt.Sprint(pl),
		"shards", *shards,
		"placement", *placement,
		"partition", *partition,
		"steal", *steal,
		"clock_scale", *clockScale,
		"virtual", *virtual,
		"metrics", *metrics,
		"pprof", *pprofFlag,
		"audit_depth", *auditDepth,
		"record", *record,
		"record_dir", *recordDir,
		"slos", len(slos))

	done := make(chan error, 1)
	go func() { done <- httpServer.Serve(ln) }()

	select {
	case s := <-stop:
		logger.Info("draining", "signal", s.String())
	case err := <-done:
		return fatal("http server failed", "err", err)
	}

	// Graceful drain: finish every accepted job on every shard, then stop
	// the listener.
	if err := srv.Drain(); err != nil {
		return fatal("drain failed", "err", err)
	}
	counts := srv.Counts()
	logger.Info("drained", "submitted", counts.Submitted, "completed", counts.Completed)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fatal("shutdown failed", "err", err)
	}
	logger.Info("bye")
	return nil
}

// Connection timeouts. A client gets readHeaderTimeout to finish its
// request header and an idle keep-alive connection is closed after
// idleTimeout. There is deliberately no read or write timeout: POST
// /v1/jobs:stream and GET /v1/watch are long-lived by design.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// buildLogger assembles the process logger from the -log-level and
// -log-format flags. Testable: errors name the offending flag value.
func buildLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level %q: want debug, info, warn or error", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("-log-format %q: want text or json", format)
}

// parseSLOs parses the -slo flag: comma-separated objectives, each
// "latency:<threshold-seconds>:<target>" or "availability:<target>",
// optionally prefixed "name=" (the default name is the kind, suffixed
// with the entry index past the first so unnamed objectives stay
// unique). Testable: errors name the offending entry.
func parseSLOs(s string) ([]obs.Objective, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []obs.Objective
	for i, entry := range strings.Split(s, ",") {
		token := strings.TrimSpace(entry)
		name := ""
		if eq := strings.Index(token, "="); eq >= 0 {
			name = strings.TrimSpace(token[:eq])
			token = strings.TrimSpace(token[eq+1:])
		}
		parts := strings.Split(token, ":")
		o := obs.Objective{Name: name, Kind: parts[0]}
		switch {
		case o.Kind == obs.ObjectiveLatency && len(parts) == 3:
			thr, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return nil, fmt.Errorf("-slo entry %d (%q): bad threshold %q: %w", i, entry, parts[1], err)
			}
			tgt, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, fmt.Errorf("-slo entry %d (%q): bad target %q: %w", i, entry, parts[2], err)
			}
			o.ThresholdSeconds, o.Target = thr, tgt
		case o.Kind == obs.ObjectiveAvailability && len(parts) == 2:
			tgt, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return nil, fmt.Errorf("-slo entry %d (%q): bad target %q: %w", i, entry, parts[1], err)
			}
			o.Target = tgt
		default:
			return nil, fmt.Errorf("-slo entry %d (%q): want latency:<threshold>:<target> or availability:<target>", i, entry)
		}
		if o.Name == "" {
			o.Name = o.Kind
			if i > 0 {
				o.Name = fmt.Sprintf("%s-%d", o.Kind, i)
			}
		}
		if err := o.Validate(); err != nil {
			return nil, fmt.Errorf("-slo entry %d (%q): %w", i, entry, err)
		}
		for _, prev := range out {
			if prev.Name == o.Name {
				return nil, fmt.Errorf("-slo entry %d (%q): duplicate objective name %q", i, entry, o.Name)
			}
		}
		out = append(out, o)
	}
	return out, nil
}

// parseSlaves parses the -slaves flag: comma-separated c:p pairs, one
// per slave. Errors name the offending token and its zero-based index so
// a typo in a long fleet description is findable at a glance.
func parseSlaves(s string) (core.Platform, error) {
	var c, p []float64
	for i, pair := range strings.Split(s, ",") {
		token := strings.TrimSpace(pair)
		parts := strings.SplitN(token, ":", 2)
		if len(parts) != 2 {
			return core.Platform{}, fmt.Errorf("-slaves entry %d (%q) is not of the form c:p", i, token)
		}
		cv, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return core.Platform{}, fmt.Errorf("-slaves entry %d (%q): bad communication time %q: %w", i, token, parts[0], err)
		}
		pv, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return core.Platform{}, fmt.Errorf("-slaves entry %d (%q): bad computation time %q: %w", i, token, parts[1], err)
		}
		// One validator for every way a platform gets in: it also refuses
		// NaN and Inf, which ParseFloat accepts and "<= 0" lets through.
		if (core.Platform{C: []float64{cv}, P: []float64{pv}}).Validate() != nil {
			return core.Platform{}, fmt.Errorf("-slaves entry %d (%q): costs must be positive and finite", i, token)
		}
		c = append(c, cv)
		p = append(p, pv)
	}
	return core.Platform{C: c, P: p}, nil
}

// buildPlatform parses -slaves "c:p,c:p,..." or draws a random platform
// of the requested class, seeded like the experiment harness.
func buildPlatform(slaves, class string, m int, seed int64) (core.Platform, error) {
	if slaves != "" {
		return parseSlaves(slaves)
	}
	cl, err := core.ParseClass(class)
	if err != nil {
		return core.Platform{}, err
	}
	return core.Random(rand.New(rand.NewSource(seed)), cl, core.GenConfig{M: m}), nil
}
