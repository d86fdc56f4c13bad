package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/runner"
	"repro/internal/sched"
)

// preloadService is scrape_at_scale's set-up: a -virtual service that has
// completed n jobs submitted as one-job lines with at most preloadWindow in
// flight — the trickle shape that leaves port-idle gaps in the recorded
// schedule, which is what makes the stats scrape expensive — and has not
// been drained. The window is small because how many jobs find their shard
// idle depends on how ingest and the virtual clock interleave, and the
// scrape cost follows it: first scrapes of 2.09 to 2.37 s over eight runs
// with sixteen lines in flight, 1.86 to 2.02 s with eight, 3.30 to 3.31 s
// (one run in five at 3.46) with four. Two or one in flight repeat no
// better and take 4.2 to 4.6 s a scrape.
func preloadService(ctx context.Context, seed int64, n int) (*service, error) {
	svc, err := newService(serviceConfig(true))
	if err != nil {
		return nil, err
	}
	lines := perjobLines(perturbedSpecs(seed, "scrape/preload", n))
	if o := streamLines(ctx, svc, lines, preloadWindow, nil, nil); o.err != nil {
		return nil, fmt.Errorf("preload: %w", o.err)
	}
	for svc.srv.Counts().Completed < n {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("preload: %w", ctx.Err())
		}
		time.Sleep(time.Millisecond)
	}
	return svc, connect(ctx, svc, 1)
}

// scrapePopulation is how many jobs scrape_at_scale preloads. The scrape
// cost is what the workload measures and it depends on the population, so
// the population does not scale with the run length; only a smoke run
// (-short, or a window of a second or two) gets a tenth of it.
func (e env) scrapePopulation() int {
	if e.scale < 0.2 {
		return scrapePreload / 10
	}
	return scrapePreload
}

// scrapeOp is one read of the fixed mix.
type scrapeOp struct {
	kind string // stats, job, trace, metrics
	path string
}

// scrapeMix lays the fixed op counts out in three equal rounds, each led
// by one /v1/stats, so the stats scrapes are spread over the window.
func scrapeMix(e env, population int) []scrapeOp {
	lookups := lookupIDs(e.seed, "scrape/lookups", e.scaled(scrapeLookups), population)
	traces := lookupIDs(e.seed, "scrape/traces", e.scaled(scrapeTraces), population)
	metrics := e.scaled(scrapeMetrics)
	var ops []scrapeOp
	for round := 0; round < scrapeStats; round++ {
		ops = append(ops, scrapeOp{"stats", "/v1/stats"})
		for _, id := range lookups[round*len(lookups)/scrapeStats : (round+1)*len(lookups)/scrapeStats] {
			ops = append(ops, scrapeOp{"job", "/v1/jobs/" + strconv.Itoa(id)})
		}
		for _, id := range traces[round*len(traces)/scrapeStats : (round+1)*len(traces)/scrapeStats] {
			ops = append(ops, scrapeOp{"trace", "/v1/jobs/" + strconv.Itoa(id) + "/trace"})
		}
		for i := round * metrics / scrapeStats; i < (round+1)*metrics/scrapeStats; i++ {
			ops = append(ops, scrapeOp{"metrics", "/metrics"})
		}
	}
	return ops
}

// runScrape reads a populated service beside a paced background ingest:
// one reader connection works through the fixed mix as a closed loop while
// a second connection keeps submitting at a fixed open-loop rate.
func runScrape(ctx context.Context, e env) (*result, error) {
	r := newResult("scrape_at_scale", "read", e)
	preload := e.scrapePopulation()
	before := heapLive()
	svc, setupS, setupN, err := setupMedian(e, func() (*service, error) {
		return preloadService(ctx, e.seed, preload)
	}, func(svc *service) { _ = svc.close() })
	if err != nil {
		return nil, err
	}
	defer svc.close()
	r.setupS, r.setupN = setupS, setupN
	ops := scrapeMix(e, preload)

	// Background ingest: 50-job lines, 20 a second, for as long as the
	// reader works. The line count is open-ended, so lines are handed to
	// the stream until the reader is done.
	root := e.tr.begin(0, "bench", "window")
	start := time.Now()
	readerDone := make(chan struct{})
	bgDone := make(chan streamOutcome, 1)
	go func() { bgDone <- backgroundIngest(ctx, svc, start, readerDone) }()

	stats := make([]float64, 0, scrapeStats)
	for _, op := range ops {
		sp := e.tr.begin(root, "schedd", "GET "+op.kind)
		opCtx, cancel := context.WithTimeout(ctx, readTimeBox)
		began := time.Now()
		status, _, err := svc.get(opCtx, op.path)
		ms := float64(time.Since(began)) / 1e6
		cancel()
		e.tr.end(sp)
		r.check(err == nil && status == http.StatusOK, "GET %s: status %d, %v (%.0f ms)", op.path, status, err, ms)
		switch op.kind {
		case "job":
			r.opLatMS = append(r.opLatMS, ms)
		case "stats":
			stats = append(stats, ms)
		}
	}
	r.windowS = time.Since(start).Seconds()
	e.tr.end(root)
	close(readerDone)
	bg := <-bgDone
	r.ops = len(ops)
	r.opsPerS = float64(r.ops) / r.windowS

	r.check(bg.err == nil, "background ingest: %v", bg.err)
	r.checkN(len(bg.acks))
	bgJobs := len(bg.acks) * bgLineJobs
	drainErr := svc.srv.Drain()
	r.check(drainErr == nil, "drain: %v", drainErr)
	checkCounts(r, svc.srv, preload+bgJobs)
	serviceCounters(ctx, r, svc, 0)

	r.diag["stats_scrape_ms"] = metric{Value: median(stats), Unit: "ms", N: len(stats)}
	if lat := bg.latenciesMS(); len(lat) > 0 {
		sort.Float64s(lat)
		r.diag["schedd.bg_ack_p99_ms"] = metric{Value: percentile(lat, 99), Unit: "ms", N: len(lat)}
	}
	ops, bg = nil, streamOutcome{} // harness records are not the service's memory
	after := heapLive()
	r.heapMB = float64(after) / (1 << 20)
	r.retainedBPerJob = (float64(after) - float64(before)) / float64(preload+bgJobs)
	return r, nil
}

// backgroundIngest submits bgLineJobs-job lines at bgLinesPerSec on its
// own stream until stop closes. Ack delays are counted from each line's
// due time.
func backgroundIngest(ctx context.Context, svc *service, start time.Time, stop <-chan struct{}) streamOutcome {
	const maxLines = 200 * bgLinesPerSec // more than any run's time box can send
	pace := func(i int) (time.Time, bool) {
		select {
		case <-stop:
			return time.Time{}, false
		default:
			return start.Add(time.Duration(i) * time.Second / bgLinesPerSec), true
		}
	}
	return streamLines(ctx, svc, repeatLine(bulkLine(bgLineJobs), maxLines), perjobWindow, pace, nil)
}

// goldenDir holds the recorded sweep digests, relative to the checkout root
// run.sh runs the command from.
const goldenDir = "bench/golden"

// runSweep repeats the paper's full evaluation — Figure 1's four panels,
// Figure 2 and Table 1 at paper scale, with SO-LS beside the seven
// heuristics — and times each pass. No service is involved.
//
// How long a pass takes depends on the platforms its seed draws (by ±15 %
// between seeds), so every pass draws its own seed from the run's: the
// run's total work is then an average over many draws and barely moves
// with -seed, which a single repeated draw would not give.
func runSweep(_ context.Context, e env) (*result, error) {
	r := newResult("paper_sweep", "task", e)
	cfg := func(pass int) experiment.Config {
		return experiment.Config{Seed: runner.Seed(e.seed, fmt.Sprintf("bench/sweep/pass=%d", pass)), Schedulers: sched.ExtendedNames()}
	}
	// Set-up is a reduced pass: it triggers whatever the experiment code
	// initialises lazily, so the first timed pass is like the rest.
	warm := cfg(0)
	warm.Platforms, warm.Tasks = 2, 200
	_, setupS, setupN, err := setupMedian(e, func() (string, error) {
		digest, _, _ := sweepPass(nil, 0, warm)
		return digest, nil
	}, func(string) {})
	if err != nil {
		return nil, err
	}
	r.setupS, r.setupN = setupS, setupN

	passes := e.scaled(sweepPasses)
	all := sha256.New()
	var first string
	// Every pass's results stay referenced until the heap is measured: what
	// a sweep retains is its results.
	held := make([]any, 0, passes)
	root := e.tr.begin(0, "bench", "window")
	start := time.Now()
	for i := 0; i < passes; i++ {
		began := time.Now()
		sp := e.tr.begin(root, "bench", "pass")
		digest, tasks, results := sweepPass(e.tr, sp, cfg(i))
		e.tr.end(sp)
		held = append(held, results)
		r.opLatMS = append(r.opLatMS, float64(time.Since(began))/1e6)
		r.ops += tasks
		all.Write([]byte(digest))
		if i == 0 {
			first = digest
		}
	}
	r.windowS = time.Since(start).Seconds()
	e.tr.end(root)
	r.opsPerS = float64(r.ops) / r.windowS

	// Oracles: the first pass repeated (outside the window) renders the
	// same tables, and for a seed with a committed golden file the digest
	// over every pass's tables is the recorded one. The golden file is for
	// the default population only.
	again, _, _ := sweepPass(nil, 0, cfg(0))
	r.check(again == first, "pass 0 repeated renders %s, first rendered %s", again, first)
	digest := hex.EncodeToString(all.Sum(nil))
	golden := filepath.Join(goldenDir, fmt.Sprintf("sweep-seed%d.sha256", e.seed))
	if want, err := os.ReadFile(golden); err == nil && passes == sweepPasses {
		r.check(strings.TrimSpace(string(want)) == digest, "digest %s differs from %s", digest, golden)
	}
	r.note = fmt.Sprintf("rendered-table digest over %d passes: %s", passes, digest)
	r.heapMB = float64(heapLive()) / (1 << 20)
	runtime.KeepAlive(held)
	return r, nil
}

// sweepPass runs the evaluation once and returns the digest of its
// rendered tables, the number of task dispatches it simulated and the
// results themselves:
// Figure 1 simulates every scheduler once per platform per class, Figure 2
// twice per platform (perturbed and nominal). Table 1's adversary games
// are a few dozen tasks and are not counted.
func sweepPass(tr *tracer, parent int, cfg experiment.Config) (string, int, any) {
	h := sha256.New()
	var results []any
	platforms, tasks := cfg.Platforms, cfg.Tasks
	if platforms == 0 {
		platforms, tasks = 10, 1000 // experiment.Config's paper-scale defaults
	}
	for _, class := range core.Classes {
		sp := tr.begin(parent, "experiment", "Figure1/"+class.String())
		fig := experiment.Figure1(class, cfg)
		h.Write([]byte(fig.Render()))
		tr.end(sp)
		results = append(results, fig)
	}
	sp := tr.begin(parent, "experiment", "Figure2")
	fig2 := experiment.Figure2(cfg)
	h.Write([]byte(fig2.Render()))
	tr.end(sp)
	sp = tr.begin(parent, "experiment", "Table1")
	rows := experiment.Table1()
	h.Write([]byte(experiment.RenderTable1(rows)))
	tr.end(sp)
	results = append(results, fig2, rows)
	perScheduler := platforms * tasks * len(cfg.Schedulers)
	return hex.EncodeToString(h.Sum(nil)), len(core.Classes)*perScheduler + 2*perScheduler, results
}
