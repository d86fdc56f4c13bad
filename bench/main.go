// Command bench is the repository's one benchmark: five kinds of load on
// the serving stack and the offline engine (six workloads — the real-clock
// one runs at two rates), the output oracles that make a number count only
// when the answer was right, and the traced layer ladder that says which
// layer a change in an end-to-end number came from. BENCHMARK.json at the
// repository root declares the command, the workloads, the metrics and
// each end-to-end metric's regression bound; README.md in this directory
// is the guide.
//
//	bash bench/run.sh --workload firehose_bulk --seed 2006 --seconds 10 --trace 0
//	bash bench/run.sh -seed 2006            # every workload, then every traced run
//	bash bench/run.sh -check-repeat         # two full sets, compared against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadSpec is one entry of the benchmark's workload table.
type workloadSpec struct {
	name string
	run  func(ctx context.Context, e env) (*result, error)
}

func workloads() []workloadSpec {
	return []workloadSpec{
		{"firehose_bulk", func(ctx context.Context, e env) (*result, error) { return runFirehose(ctx, e, bulkShape) }},
		{"firehose_perjob", func(ctx context.Context, e env) (*result, error) { return runFirehose(ctx, e, perjobShape) }},
		{"serve_r2400", func(ctx context.Context, e env) (*result, error) { return runServe(ctx, e, "serve_r2400", 2400) }},
		{"serve_r3000", func(ctx context.Context, e env) (*result, error) { return runServe(ctx, e, "serve_r3000", 3000) }},
		{"scrape_at_scale", runScrape},
		{"paper_sweep", runSweep},
	}
}

// options are the command's flags.
type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       int
	short       bool
	checkRepeat bool
	traceOut    string
}

// scale is the population multiplier of a run; quarter is the per-layer
// runs' reduction.
func (o options) scale(quarter bool) float64 {
	s := float64(o.seconds) / 10
	if o.short {
		s /= 10
	}
	if quarter {
		s /= 4
	}
	return s
}

// endToEnd renders a result as the declared end-to-end metrics.
func endToEnd(r *result) map[string]metric {
	p50, tail, _ := r.latency()
	return map[string]metric{
		"setup_s":      {Value: r.setupS, Unit: "s", N: r.setupN},
		"ops_per_s":    {Value: r.opsPerS, Unit: "1/s", N: r.ops},
		"op_p50_ms":    {Value: p50, Unit: "ms", N: len(r.opLatMS)},
		"op_tail_ms":   {Value: tail, Unit: "ms", N: len(r.opLatMS)},
		"heap_live_mb": {Value: r.heapMB, Unit: "MB"},
	}
}

// resultLine is the machine-readable last line of a single-workload run.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// wireMetrics strips the sample counts: the contract's metric objects
// carry exactly a value and a unit.
func wireMetrics(ms map[string]metric) map[string]metric {
	out := make(map[string]metric, len(ms))
	for k, m := range ms {
		out[k] = metric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// environment is the header every report carries, so that two reports
// taken under different conditions can never be compared silently.
type environment struct {
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Short      bool           `json:"short"`
	ClockScale int            `json:"clock_scale"`
	Commit     string         `json:"git_commit"`
	Population map[string]int `json:"populations"`
}

func describeEnvironment(o options) environment {
	// A checkout that is not a git repository reports "unknown"; the
	// ceiling keeps git from looking for a repository above it.
	commit := "unknown"
	if wd, err := os.Getwd(); err == nil {
		git := exec.Command("git", "rev-parse", "HEAD")
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := git.Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	e := env{scale: o.scale(false)}
	return environment{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Short: o.short, ClockScale: clockScale, Commit: commit,
		Population: map[string]int{
			"firehose_bulk.jobs":      e.scaled(bulkLines) * bulkPerLine,
			"firehose_perjob.jobs":    e.scaled(perjobJobs),
			"serve.seconds_per_rate":  e.scaled(10),
			"scrape_at_scale.preload": e.scrapePopulation(),
			"scrape_at_scale.lookups": e.scaled(scrapeLookups),
			"paper_sweep.passes":      e.scaled(sweepPasses),
		},
	}
}

func printEnvironment(ev environment) {
	fmt.Fprintf(os.Stderr, "# bench: %s %s/%s nproc=%d GOMAXPROCS=%d seed=%d seconds=%d clock_scale=%d commit=%s\n",
		ev.GoVersion, ev.GOOS, ev.GOARCH, ev.NumCPU, ev.GOMAXPROCS, ev.Seed, ev.Seconds, ev.ClockScale, ev.Commit)
	keys := make([]string, 0, len(ev.Population))
	for k := range ev.Population {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, ev.Population[k])
	}
	fmt.Fprintf(os.Stderr, "# populations: %s\n", strings.Join(parts, " "))
	if ev.Short {
		fmt.Fprintln(os.Stderr, "# -short: a tenth of every population — a smoke run, NOT COMPARABLE with any recorded number")
	}
}

// printMetrics writes a metric set, sorted by name, to the report.
func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s\n", title)
	for _, k := range names {
		m := ms[k]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(os.Stderr, "  %-44s %14.4f %-6s%s\n", k, m.Value, m.Unit, n)
	}
}

// printResult writes one workload run's report: the declared end-to-end
// metrics, the issue's per-workload names for them, and the oracles.
func printResult(r *result) {
	e2e := endToEnd(r)
	_, _, tailP := r.latency()
	printMetrics(fmt.Sprintf("== %s: %d %ss in %.3f s; op_tail is p%.0f", r.workload, r.ops, r.opUnit, r.windowS, tailP), e2e)
	alias := map[string]metric{"fail_ratio": {Value: float64(r.failed) / float64(max(1, r.attempted)), Unit: "ratio", N: r.attempted}}
	switch {
	case strings.HasPrefix(r.workload, "firehose"):
		alias["jobs_per_s"] = metric{Value: float64(r.ops) / r.windowS, Unit: "1/s", N: r.ops}
		alias["retained_b_per_job"] = metric{Value: r.retainedBPerJob, Unit: "B", N: r.ops}
	case strings.HasPrefix(r.workload, "serve_"):
		rate := strings.TrimPrefix(r.workload, "serve_")
		alias["lat_p50_ms."+rate] = e2e["op_p50_ms"]
		alias[fmt.Sprintf("lat_p%.0f_ms.%s", tailP, rate)] = e2e["op_tail_ms"]
		alias["retained_b_per_job"] = metric{Value: r.retainedBPerJob, Unit: "B", N: r.ops}
	case r.workload == "scrape_at_scale":
		alias[fmt.Sprintf("job_lookup_p%.0f_us", tailP)] = metric{Value: e2e["op_tail_ms"].Value * 1e3, Unit: "us", N: len(r.opLatMS)}
	case r.workload == "paper_sweep":
		alias["sim_tasks_per_s"] = e2e["ops_per_s"]
	}
	for k, m := range r.diag {
		alias[k] = m
	}
	printMetrics("  -- as named in the issue, and diagnostics", alias)
	if r.note != "" {
		fmt.Fprintf(os.Stderr, "  %s\n", r.note)
	}
	printFailures(r)
}

func printFailures(r *result) {
	fmt.Fprintf(os.Stderr, "  %s oracles: %d checked, %d failed\n", r.workload, r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "    FAILED: %s\n", f)
	}
}

// runOne runs one workload inside the run time box: at its full population
// for the end-to-end metrics, or at a quarter of it, set up once, for the
// per-layer metrics — there with harness spans when traced.
func runOne(o options, w workloadSpec, quarter, traced bool) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeBox)
	defer cancel()
	e := env{seed: o.seed, scale: o.scale(quarter), setupOnce: quarter}
	if traced {
		e.tr = newTracer(w.name, o.seed)
	}
	r, err := w.run(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return r, nil
}

// runTracedWorkload is the workload half of a --trace 1 run: the workload
// at a quarter of its population, once without and once with harness spans
// around the calls into each layer. The spans are written out, and the
// counts read at the layer boundaries are returned with the tracing
// overhead — the ratio of the two runs' per-op windows.
func runTracedWorkload(o options, w workloadSpec) (map[string]metric, *result, error) {
	plain, err := runOne(o, w, true, false)
	if err != nil {
		return nil, nil, err
	}
	traced, err := runOne(o, w, true, true)
	if err != nil {
		return nil, nil, err
	}
	printResult(traced)
	path, err := traced.spans.write(o.traceOut)
	if err != nil {
		return nil, nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "  spans: %d written to %s\n", len(traced.spans.spans), path)
	self := map[string]metric{}
	for layer, s := range layerSelf(traced.spans.spans) {
		self["self_s."+layer] = metric{Value: s, Unit: "s"}
	}
	printMetrics("  -- harness span self time by layer", self)

	layers := map[string]metric{"bench.trace_overhead_ratio": {
		Value: (traced.windowS / float64(traced.ops)) / (plain.windowS / float64(plain.ops)), Unit: "ratio"}}
	for name, unit := range workloadLayerMetrics {
		m := traced.layer[name]
		m.Unit = unit // a workload that does not cross the layer reports 0
		layers[name] = m
	}
	return layers, traced, nil
}

// runLadderBoxed runs the layer ladder inside the run time box.
func runLadderBoxed(o options) (map[string]metric, *result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeBox)
	defer cancel()
	return runLadder(ctx, o)
}

// workloadLayerMetrics are the per-layer numbers read off the traced
// workload run itself rather than the ladder, with their units.
var workloadLayerMetrics = map[string]string{
	"cluster.slab_hit_ratio": "ratio", "cluster.intake_queue_peak": "count",
	"schedd.watch_dropped": "count", "live.events_dropped": "count", "flight.segments_dropped": "count",
	"live.flow_inflation": "ratio",
}

func emit(r *result, ms map[string]metric) {
	line, err := json.Marshal(resultLine{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: wireMetrics(ms),
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all, then every traced run)")
	flag.Int64Var(&o.seed, "seed", 2006, "seed every generated input derives from")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal length of a timed window; populations scale with it")
	flag.IntVar(&o.trace, "trace", 0, "1: quarter-population traced run plus the layer ladder, printing the per-layer metrics")
	flag.BoolVar(&o.short, "short", false, "a tenth of every population: a smoke run, not comparable")
	flag.BoolVar(&o.checkRepeat, "check-repeat", false, "run the full untraced set twice and fail if any end-to-end metric differs by more than its bound")
	flag.StringVar(&o.traceOut, "trace-out", ".bench_build/trace", "directory the traced run's span files are written to")
	flag.Parse()
	if o.seconds < 1 || o.seconds > 60 {
		fatal(fmt.Errorf("-seconds %d outside [1, 60]", o.seconds))
	}
	ws := workloads()
	ev := describeEnvironment(o)
	printEnvironment(ev)

	if o.checkRepeat {
		os.Exit(checkRepeat(o, ws))
	}
	if o.workload != "" {
		for _, w := range ws {
			if w.name != o.workload {
				continue
			}
			if o.trace == 0 {
				r, err := runOne(o, w, false, false)
				if err != nil {
					fatal(err)
				}
				printResult(r)
				emit(r, endToEnd(r))
				return
			}
			layers, r, err := runTracedWorkload(o, w)
			if err != nil {
				fatal(err)
			}
			ladder, lr, err := runLadderBoxed(o)
			if err != nil {
				fatal(err)
			}
			for name, m := range ladder {
				layers[name] = m
			}
			r.attempted, r.failed = r.attempted+lr.attempted, r.failed+lr.failed
			printFailures(lr)
			printMetrics("== per-layer metrics", layers)
			emit(r, layers)
			return
		}
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	}

	// Everything: each workload untraced, then each workload's traced run,
	// then the ladder once (it does not depend on the workload). Stdout
	// gets one JSON document with the environment header — the form
	// baseline.json records.
	start := time.Now()
	failed := 0
	doc := struct {
		Environment environment                  `json:"environment"`
		EndToEnd    map[string]map[string]metric `json:"end_to_end"`
		Traced      map[string]map[string]metric `json:"per_layer_by_workload"`
		Ladder      map[string]metric            `json:"per_layer_ladder"`
	}{ev, map[string]map[string]metric{}, map[string]map[string]metric{}, nil}
	for _, w := range ws {
		r, err := runOne(o, w, false, false)
		if err != nil {
			fatal(err)
		}
		printResult(r)
		failed += r.failed
		doc.EndToEnd[w.name] = endToEnd(r)
		for k, m := range r.diag {
			doc.EndToEnd[w.name][k] = m
		}
	}
	for _, w := range ws {
		layers, r, err := runTracedWorkload(o, w)
		if err != nil {
			fatal(err)
		}
		printMetrics("  -- per-layer metrics read off this run", layers)
		failed += r.failed
		doc.Traced[w.name] = layers
	}
	ladder, lr, err := runLadderBoxed(o)
	if err != nil {
		fatal(err)
	}
	printFailures(lr)
	printMetrics("== per-layer metrics (ladder)", ladder)
	failed += lr.failed
	doc.Ladder = ladder
	fmt.Fprintf(os.Stderr, "# total %.1f s, %d oracle failures\n", time.Since(start).Seconds(), failed)
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if failed > 0 {
		os.Exit(1)
	}
}
