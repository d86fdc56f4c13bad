// Example sharded-service: the multi-master serving stack end to end.
//
// Part 1 partitions an eight-slave heterogeneous platform across a
// fleet of masters and measures how ingest-to-drain wall time scales
// with the shard count — the paper's one-port master is a structural
// serial bottleneck, and every shard brings its own port.
//
// Part 2 contrasts placement policies on a deliberately lopsided
// 2-shard cluster (one fast shard, one slow): round-robin splits a
// burst evenly, het-aware routes by expected completion time using the
// shards' cost vectors before any feedback exists.
//
// Part 3 turns on the cross-shard work-stealing rebalancer (DESIGN.md
// §12) against the worst case placement can produce: every job pinned
// on one shard while its siblings idle. Stealing retracts still-pending
// jobs from the back of the hot shard's queue and re-admits them where
// the expected completion time is lower, so the same burst drains in a
// fraction of the wall time.
//
// Part 4 watches the same steal storm through the observability layer
// (DESIGN.md §13): the full schedd service over HTTP, with /metrics
// scraped mid-flight while the rebalancer evacuates a pinned backlog,
// then the decision audit and the per-stage latency breakdown after
// the dust settles.
//
// Part 5 records a steal storm with the flight recorder (DESIGN.md
// §14): the same adversarial run journaled to on-disk segments while
// SLO burn rates are computed live, then — after the daemon has
// drained — the recording alone is parsed, summarized, rendered as
// per-shard Gantt timelines and exported as Perfetto-loadable Chrome
// trace-event JSON. Everything part 5 does programmatically, schedctl
// does from the command line (top / tail / export / slo).
//
// Run with: go run ./examples/sharded-service
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/sched"
	"repro/internal/schedd"
	"repro/internal/sim"
	"repro/internal/trace"
)

func newLS() sim.Scheduler { return sched.New("LS") }

func main() {
	// Comm-heavy platform: identical 1 s links mean a single master's
	// port caps throughput at ~1 job per model second regardless of the
	// compute behind it.
	pl := core.NewPlatform(
		[]float64{1, 1, 1, 1, 1, 1, 1, 1},
		[]float64{1, 2, 3, 4, 1, 2, 3, 4})
	fmt.Printf("platform: %v (%v)\n\n", pl, pl.Classify())

	// --- Part 1: ingest scaling across shard counts. ---
	fmt.Println("part 1 — ingest scaling (240 jobs, LS per shard, least-loaded placement, ×2000 clock):")
	var base float64
	for _, shards := range []int{1, 2, 4} {
		// One model-time epoch for the whole fleet, as the service does:
		// cross-shard time comparisons need a shared clock origin.
		epoch := time.Now()
		r, err := cluster.New(cluster.Config{
			Platform:     pl,
			NewScheduler: newLS,
			Shards:       shards,
			Placement:    cluster.PlacementLeastLoaded,
			Partition:    core.PartitionBalanced,
			World:        func(int) live.World { return live.NewRealTimeFrom(2000, epoch) },
		})
		if err != nil {
			panic(err)
		}
		r.Start()
		start := time.Now()
		if _, err := r.SubmitRange(live.JobSpec{}, 240); err != nil {
			panic(err)
		}
		if err := r.Drain(); err != nil {
			panic(err)
		}
		wall := time.Since(start).Seconds()
		if shards == 1 {
			base = wall
		}
		fmt.Printf("  shards=%d  partition=[", shards)
		for i, sh := range r.Shards() {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%v", sh.Slaves())
		}
		fmt.Printf("]  wall %.3fs  speedup ×%.2f\n", wall, base/wall)
	}

	// --- Part 2: placement policies on a lopsided cluster. ---
	// Shard 0 (slaves 0, 2) is 10× faster than shard 1 (slaves 1, 3).
	lop := core.NewPlatform(
		[]float64{0.05, 0.05, 0.05, 0.05},
		[]float64{0.4, 4, 0.4, 4})
	fmt.Println("\npart 2 — a 44-job burst on a lopsided 2-shard cluster (shard 0 is 10× faster):")
	for _, placement := range []string{cluster.PlacementRoundRobin, cluster.PlacementHetAware} {
		// A gentler clock here (×200): the fast shard's tasks must stay
		// well above time.Sleep granularity or wall-clock overshoot, not
		// the platform, dominates the measured makespan.
		epoch := time.Now()
		r, err := cluster.New(cluster.Config{
			Platform:     lop,
			NewScheduler: newLS,
			Shards:       2,
			Placement:    placement,
			World:        func(int) live.World { return live.NewRealTimeFrom(200, epoch) },
		})
		if err != nil {
			panic(err)
		}
		r.Start()
		first, err := r.SubmitRange(live.JobSpec{}, 44)
		if err != nil {
			panic(err)
		}
		perShard := make([]int, 2)
		for gid := first; gid < first+44; gid++ {
			s, _ := r.ShardOf(gid)
			perShard[s]++
		}
		if err := r.Drain(); err != nil {
			panic(err)
		}
		// Cluster makespan: the slowest shard's span, from the merged
		// trace view the service exposes on GET /v1/stats. Like the service,
		// rebase each shard's records to its first release — the wall
		// clock was already ticking before the burst arrived.
		var reports []trace.Report
		for _, sh := range r.Shards() {
			schedule := sh.Result().Schedule
			first := schedule.Records[0].Release
			for _, rec := range schedule.Records {
				if rec.Release < first {
					first = rec.Release
				}
			}
			for i := range schedule.Records {
				schedule.Records[i].Release -= first
				schedule.Records[i].SendStart -= first
				schedule.Records[i].Arrive -= first
				schedule.Records[i].Start -= first
				schedule.Records[i].Complete -= first
			}
			reports = append(reports, trace.Analyze(schedule))
		}
		merged := trace.MergeReports(reports...)
		fmt.Printf("  %-12s placed %d/%d jobs on fast/slow shard → cluster makespan %7.2f model s\n",
			placement, perShard[0], perShard[1], merged.Makespan)
	}
	fmt.Println("\n(het-aware reads each shard's cost vectors — and, once completions flow,")
	fmt.Println(" its observed throughput — so the slow shard receives only what it can absorb)")

	// --- Part 3: work stealing rescues a pinned backlog. ---
	// Adversarial setup: pinned placement parks all 200 jobs on shard 0
	// of a 4-shard fleet. Without stealing the burst drains through one
	// port; with a rebalancer the idle shards pull the backlog over.
	fmt.Println("\npart 3 — work stealing under pinned placement (200 jobs, 4 shards, ×2000 clock):")
	var pinnedBase float64
	for _, steal := range []string{cluster.StealNone, cluster.StealThreshold, cluster.StealHetAware} {
		epoch := time.Now()
		r, err := cluster.New(cluster.Config{
			Platform:     pl,
			NewScheduler: newLS,
			Shards:       4,
			Placement:    cluster.PlacementPinned,
			Partition:    core.PartitionBalanced,
			World:        func(int) live.World { return live.NewRealTimeFrom(2000, epoch) },
		})
		if err != nil {
			panic(err)
		}
		r.Start()
		policy, err := cluster.NewStealPolicy(steal)
		if err != nil {
			panic(err)
		}
		reb := cluster.NewRebalancer(r, policy, 2*time.Millisecond)
		reb.Start()
		start := time.Now()
		if _, err := r.SubmitRange(live.JobSpec{}, 200); err != nil {
			panic(err)
		}
		// Poll to completion before draining: Drain stops the rebalancer
		// first, so measuring through it would forbid late steals.
		for {
			done := 0
			for _, l := range r.Loads() {
				done += l.Completed
			}
			if done >= 200 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		wall := time.Since(start).Seconds()
		reb.Stop()
		if err := r.Drain(); err != nil {
			panic(err)
		}
		if steal == cluster.StealNone {
			pinnedBase = wall
		}
		fmt.Printf("  steal=%-10s wall %.3fs  speedup ×%.2f  (%d jobs migrated in %d passes)\n",
			steal, wall, pinnedBase/wall, reb.Moved(), reb.Passes())
	}
	fmt.Println("\n(the same rebalancer runs inside schedd: -steal threshold|het-aware")
	fmt.Println(" -steal-interval 5ms; /v1/stats reports passes and jobs moved per shard)")

	// --- Part 4: scraping /metrics during a steal storm. ---
	// The full service this time: the schedd HTTP surface over the same
	// adversarial setup (200 jobs pinned on one of four shards, the
	// threshold rebalancer pulling the backlog outward). The Prometheus
	// exposition is scraped WHILE the storm is in flight — recording is
	// atomics only, so observing the cluster never slows it down.
	fmt.Println("\npart 4 — /metrics during a steal storm (200 pinned jobs, threshold rebalancer):")
	srv, err := schedd.New(schedd.Config{
		Platform:      pl,
		Policy:        "LS",
		Shards:        4,
		Placement:     cluster.PlacementPinned,
		Partition:     core.PartitionBalanced,
		ClockScale:    2000,
		Steal:         cluster.StealThreshold,
		StealInterval: 2 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"count":200}`)); err != nil {
		panic(err)
	}

	// Scrape the storm: a few samples of the series that tell the story,
	// while jobs migrate underneath the scraper.
	interesting := func(line string) bool {
		return strings.HasPrefix(line, "schedd_queue_depth") ||
			strings.HasPrefix(line, "schedd_jobs_stolen_total") ||
			strings.HasPrefix(line, "schedd_migrations_jobs_total") ||
			strings.HasPrefix(line, "schedd_steal_passes_total")
	}
	for sample := 0; sample < 2; sample++ {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			panic(err)
		}
		fmt.Printf("  scrape %d:\n", sample+1)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if interesting(sc.Text()) {
				fmt.Printf("    %s\n", sc.Text())
			}
		}
		resp.Body.Close()
		time.Sleep(20 * time.Millisecond)
	}

	// Let the storm finish, then ask WHY jobs moved (the decision audit)
	// and WHERE the latency went (the span-derived stage breakdown).
	for srv.Counts().Completed < 200 {
		time.Sleep(2 * time.Millisecond)
	}
	if err := srv.Drain(); err != nil {
		panic(err)
	}
	var dec schedd.DecisionsResponse
	decode := func(path string, out any) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			panic(err)
		}
	}
	decode("/v1/decisions?limit=200", &dec)
	steals, migrations := 0, 0
	for _, d := range dec.Decisions {
		switch d.Kind {
		case "steal":
			steals++
		case "migrate":
			migrations++
		}
	}
	fmt.Printf("\n  decision audit: %d entries (%d steal plans, %d executed migrations)\n",
		len(dec.Decisions), steals, migrations)
	for _, d := range dec.Decisions {
		if d.Kind == "migrate" {
			fmt.Printf("  e.g. migrate shard %d → shard %d: %d of %d planned jobs in %.2f ms\n",
				d.From, d.To, d.N, d.Planned, d.LatencySeconds*1000)
			break
		}
	}
	stats := srv.Stats()
	if b := stats.StageSeconds; b != nil {
		fmt.Printf("\n  stage breakdown over %d jobs (wall ms, mean/max):\n", b.Jobs)
		fmt.Printf("    queue-wait %7.2f / %7.2f   (waiting for a master's port)\n",
			b.Queue.Mean*1000, b.Queue.Max*1000)
		fmt.Printf("    transfer   %7.2f / %7.2f   (occupying the port)\n",
			b.Transfer.Mean*1000, b.Transfer.Max*1000)
		fmt.Printf("    slave-wait %7.2f / %7.2f   (at the slave, not yet computing)\n",
			b.SlaveWait.Mean*1000, b.SlaveWait.Max*1000)
		fmt.Printf("    service    %7.2f / %7.2f   (computing)\n",
			b.Service.Mean*1000, b.Service.Max*1000)
	}
	fmt.Println("\n(queue-wait dwarfing service is the pinned bottleneck made visible —")
	fmt.Println(" the same numbers stream from GET /v1/stats on any running schedd)")

	// --- Part 5: the flight recorder — record the storm, replay it. ---
	// The same pinned steal storm, but this time the daemon journals
	// every lifecycle event, completed-job span and audit decision to an
	// on-disk flight recording while two SLO objectives burn-rate the
	// run live. After drain the daemon is gone; the segments are the
	// post-mortem.
	fmt.Println("\npart 5 — flight-record a steal storm, then export the post-mortem:")
	recDir, err := os.MkdirTemp("", "flight-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(recDir)
	srv5, err := schedd.New(schedd.Config{
		Platform:      pl,
		Policy:        "LS",
		Shards:        4,
		Placement:     cluster.PlacementPinned,
		Partition:     core.PartitionBalanced,
		ClockScale:    2000,
		Steal:         cluster.StealThreshold,
		StealInterval: 2 * time.Millisecond,
		RecordDir:     recDir,
		SLOs: []obs.Objective{
			{Name: "p99", Kind: obs.ObjectiveLatency, ThresholdSeconds: 60, Target: 0.99},
			{Name: "avail", Kind: obs.ObjectiveAvailability, Target: 0.999},
		},
	})
	if err != nil {
		panic(err)
	}
	ts5 := httptest.NewServer(srv5.Handler())
	defer ts5.Close()
	if _, err := http.Post(ts5.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"count":80}`)); err != nil {
		panic(err)
	}
	for srv5.Counts().Completed < 80 {
		time.Sleep(2 * time.Millisecond)
	}
	var slo schedd.SLOResponse
	decode5 := func(path string, out any) {
		resp, err := http.Get(ts5.URL + path)
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			panic(err)
		}
	}
	decode5("/v1/slo", &slo)
	for _, st := range slo.Objectives {
		status := "ok"
		if !st.OK {
			status = "BURNING"
		}
		w := st.Windows[0]
		fmt.Printf("  slo %-6s %-13s target %.3f  %d/%d good  burn %.3f  %s\n",
			st.Objective.Name, st.Objective.Kind, st.Objective.Target,
			w.Good, w.Total, w.BurnRate, status)
	}
	if err := srv5.Drain(); err != nil { // seals and flushes the recording
		panic(err)
	}

	// The daemon has drained; from here on only the segment files speak.
	recording, err := flight.ReadDir(recDir)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\n  recording: %d segments, %d frames — %d events, %d spans, %d decisions\n",
		len(recording.Segments()), len(recording.Frames),
		len(recording.Events()), len(recording.Spans()), len(recording.Decisions()))

	var perfetto bytes.Buffer
	if err := flight.WritePerfetto(&perfetto, recording); err != nil {
		panic(err)
	}
	traceFile := filepath.Join(recDir, "trace.json")
	if err := os.WriteFile(traceFile, perfetto.Bytes(), 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("  perfetto export: %d bytes (80 jobs × 4 lifecycle stages) → %s\n",
		perfetto.Len(), traceFile)
	fmt.Println("  (load it in https://ui.perfetto.dev — one process per shard,")
	fmt.Println("   the master's port and each slave as separate tracks)")

	fmt.Println("\n  per-shard gantt from the same segments (model time, rebased):")
	var gantt bytes.Buffer
	if err := flight.WriteGantt(&gantt, recording, 72); err != nil {
		panic(err)
	}
	sc5 := bufio.NewScanner(&gantt)
	for sc5.Scan() {
		fmt.Printf("  %s\n", sc5.Text())
	}

	fmt.Println("\n(the CLI equivalent, against a live daemon or this directory:")
	fmt.Printf("   schedctl export -dir %s -format perfetto|gantt|jsonl)\n", recDir)
}
