// Package perf is the repository's micro-benchmark suite: the stable
// measurement surface for the CI benchmark-regression gate (see
// .github/workflows/ci.yml and cmd/benchgate). Each benchmark isolates
// one layer of the hot path the PR-4 overhaul optimized:
//
//   - BenchmarkEventQueue — the allocation-free binary heap alone;
//   - BenchmarkDispatch — one full engine run (dispatch, mailbox
//     delivery, ledger bookkeeping, validation excluded);
//   - BenchmarkSimulateValidated — the same run through Simulate,
//     including schedule validation (what sweeps actually pay);
//   - BenchmarkEndToEndSweep — a reduced Figure-1 panel on a one-worker
//     pool (the sweep engine end to end);
//   - BenchmarkScheddIngest — the streaming service's admission path:
//     batched POST /v1/jobs ingest into the live runtime and a full drain;
//   - BenchmarkClusterIngest — the same admission path through the
//     sharded router (4 shards, least-loaded placement): batched
//     placement decisions, global-ID bookkeeping, fan-out drain;
//   - BenchmarkClusterPlacement — the router's placement hot path alone
//     (SubmitRange into an unstarted cluster), CPU-bound and therefore
//     hard-gated, unlike the two ingest lifecycles, which sleep on a
//     scaled real clock and are exempt from the ns/op gate (see the
//     -skip regexp in ci.yml);
//   - BenchmarkObsRecord — the PR-7 metrics kernel's record path
//     (counter, gauge, histogram, audit-ring entry), CPU-bound and
//     hard-gated: the contract is 0 allocs/op, so instrumenting the
//     hot path costs atomics only;
//   - BenchmarkInstrumentedIngest — BenchmarkClusterPlacement's
//     workload bare vs with the decision audit on, CPU-bound and
//     hard-gated per variant. On this microbenchmark the audit's
//     fixed ~40ns/job record cost is visible against a ~190ns bare
//     placement op; on the real admission path (HTTP + runtime) the
//     same cost disappears into the op. Steady-state
//     allocs are identical (the +4 allocs/op on the audited variant
//     are ring construction, amortized over 1000 jobs here);
//   - BenchmarkStealPlan — the rebalancer's planning pass alone
//     (StealPolicy.Plan on synthetic skewed loads), CPU-bound and
//     hard-gated: this is the cost every rebalancer tick pays even
//     when the cluster is balanced;
//   - BenchmarkRebalance — the full steal lifecycle: a pinned burst
//     rebalanced by RebalanceOnce passes and drained (sleep-bound,
//     gate-exempt);
//   - BenchmarkClusterSkewedIngest — the PR-6 headline scenario as a
//     benchmark: adversarially pinned placement with stealing off vs
//     on (sleep-bound, gate-exempt; the recovery itself is pinned by
//     the deterministic TestStealStudyHetAwareRecoversFullSkew and
//     TestRebalancerMovesSkewedBacklog);
//   - BenchmarkFlightAppend — the PR-8 flight recorder's append path
//     (event, span and decision frames into a memory-only segment
//     ring), CPU-bound and hard-gated: the contract is 0 allocs/op at
//     steady state, rotation included (sealed buffers are recycled);
//   - BenchmarkFirehoseIngest — the PR-9 firehose admission path:
//     SubmitRange batches into an unstarted cluster's intake queues
//     (one PickBatch, global-ID bookkeeping, slab enqueue; nothing
//     drains), CPU-bound and hard-gated. The steady-state contract is
//     at most 1 alloc per job;
//   - BenchmarkPickBatch — the batched placement decision alone (one
//     PickBatch call scoring a 1000-job batch, per policy), CPU-bound
//     and hard-gated;
//   - BenchmarkJobIndexRead — the PR-10 lock-free read path (ShardOf +
//     Job through the chunked global index), CPU-bound and gated; its
//     0 allocs/op floor is cluster.TestJobIndexReadZeroAlloc, so plain
//     `go test ./...` holds it;
//   - BenchmarkConcurrentFirehose — the PR-10 sharded intake under 4
//     concurrent producers (alloc column gated).
//
// Keep these benchmarks deterministic in their workloads (fixed seeds,
// fixed scales): the gate compares ns/op and allocs/op across commits,
// so workload drift would read as a performance change.
package perf

import (
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/sched"
	"repro/internal/schedd"
	"repro/internal/sim"
	"repro/internal/sim/equeue"
)

// BenchmarkEventQueue exercises the event heap in isolation with a
// mixed push/pop stream shaped like a simulation (small live set,
// frequent same-time ties).
func BenchmarkEventQueue(b *testing.B) {
	var h equeue.Heap
	h.Grow(256)
	rng := rand.New(rand.NewSource(1))
	times := make([]float64, 256)
	for i := range times {
		times[i] = float64(rng.Intn(64))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			h.Push(equeue.Event{Time: times[(i+j)&255], Kind: int32(j & 3), Task: int32(j)})
		}
		for j := 0; j < 32; j++ {
			h.Pop()
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
}

// BenchmarkDispatch is one engine run without validation: 1000 tasks
// under LS on a fixed heterogeneous platform — the per-event cost of
// the simulator proper.
func BenchmarkDispatch(b *testing.B) {
	pl := core.Random(rand.New(rand.NewSource(2)), core.Heterogeneous, core.GenConfig{})
	tasks := core.Bag(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.New(pl, sched.NewLS(), tasks)
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateValidated is BenchmarkDispatch plus schedule
// validation — the unit of work every sweep cell repeats.
func BenchmarkSimulateValidated(b *testing.B) {
	pl := core.Random(rand.New(rand.NewSource(2)), core.Heterogeneous, core.GenConfig{})
	tasks := core.Bag(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(pl, sched.NewLS(), tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndSweep runs a reduced Figure-1 heterogeneous panel on
// a one-worker pool: engine, planners, validation, objectives and
// aggregation together, serially (so the number is comparable across
// machines with different core counts).
func BenchmarkEndToEndSweep(b *testing.B) {
	cfg := experiment.Config{Platforms: 3, Tasks: 300, M: 5, Seed: 1, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiment.Figure1(core.Heterogeneous, cfg)
	}
}

// BenchmarkScheddIngest measures the streaming service's admission
// path: a full server lifecycle ingesting 4 batched POST /v1/jobs
// requests (200 jobs) through the HTTP handler into the live runtime,
// then draining. The scaled clock compresses the paper-seconds platform
// so the benchmark measures ingest and bookkeeping, not sleeping.
func BenchmarkScheddIngest(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		srv, err := schedd.New(schedd.Config{
			Platform:   core.NewPlatform([]float64{0.1, 0.25, 0.5, 0.75, 1}, []float64{0.5, 2, 4, 6, 8}),
			Policy:     "LS",
			ClockScale: 50000,
		})
		if err != nil {
			b.Fatal(err)
		}
		for batch := 0; batch < 4; batch++ {
			req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(`{"count":50}`))
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			if rec.Code != 202 {
				b.Fatalf("POST /v1/jobs: %d %s", rec.Code, rec.Body.String())
			}
		}
		if err := srv.Drain(); err != nil {
			b.Fatal(err)
		}
		if got := srv.Stats().Jobs.Completed; got != 200 {
			b.Fatalf("completed %d of 200 jobs", got)
		}
	}
}

// BenchmarkClusterIngest is BenchmarkScheddIngest through the sharded
// serving stack: 4 masters over a balanced partition of an eight-slave
// platform, least-loaded placement, 4 batched POST /v1/jobs requests (200
// jobs), full fan-out drain. Like ScheddIngest it sleeps on a scaled
// real clock, so it is tracked by benchstat but exempt from the hard
// ns/op gate.
func BenchmarkClusterIngest(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		srv, err := schedd.New(schedd.Config{
			Platform: core.NewPlatform(
				[]float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
				[]float64{0.5, 1, 1.5, 2, 0.5, 1, 1.5, 2}),
			Policy:     "LS",
			Shards:     4,
			Placement:  "least-loaded",
			Partition:  core.PartitionBalanced,
			ClockScale: 50000,
		})
		if err != nil {
			b.Fatal(err)
		}
		for batch := 0; batch < 4; batch++ {
			req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(`{"count":50}`))
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			if rec.Code != 202 {
				b.Fatalf("POST /v1/jobs: %d %s", rec.Code, rec.Body.String())
			}
		}
		if err := srv.Drain(); err != nil {
			b.Fatal(err)
		}
		if got := srv.Stats().Jobs.Completed; got != 200 {
			b.Fatalf("completed %d of 200 jobs", got)
		}
	}
}

// BenchmarkStealPlan measures one rebalancer planning pass on synthetic
// loads: 16 shards, the whole backlog pinned on shard 0 — the most work
// a single Plan call ever does (every pairing iteration fires). Pure
// CPU, no cluster, fully gated.
func BenchmarkStealPlan(b *testing.B) {
	const shards = 16
	loads := make([]live.Load, shards)
	loads[0] = live.Load{Submitted: 10000, Admitted: 10000}
	rates := make([]float64, shards)
	for i := range rates {
		rates[i] = 1 + float64(i%4)
	}
	for _, name := range []string{"threshold", "het-aware"} {
		policy, err := cluster.NewStealPolicy(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if plan := policy.Plan(loads, rates); len(plan) == 0 {
					b.Fatal("no plan for a fully pinned backlog")
				}
			}
		})
	}
}

// BenchmarkRebalance is the steal lifecycle end to end: a 4-shard
// cluster with every job pinned on shard 0, explicit RebalanceOnce
// passes spreading the backlog, then a full drain. Sleep-bound (scaled
// real clock), so benchstat tracks it but the ns/op gate skips it.
func BenchmarkRebalance(b *testing.B) {
	pl := core.NewPlatform(
		[]float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
		[]float64{0.5, 1, 1.5, 2, 0.5, 1, 1.5, 2})
	policy, err := cluster.NewStealPolicy("het-aware")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := cluster.New(cluster.Config{
			Platform:     pl,
			NewScheduler: func() sim.Scheduler { return sched.New("LS") },
			Shards:       4,
			Placement:    "pinned",
			Partition:    core.PartitionBalanced,
			World:        func(int) live.World { return live.NewRealTime(50000) },
		})
		if err != nil {
			b.Fatal(err)
		}
		r.Start()
		if _, err := r.SubmitRange(live.JobSpec{}, 200); err != nil {
			b.Fatal(err)
		}
		for pass := 0; pass < 4; pass++ {
			r.RebalanceOnce(policy)
		}
		if err := r.Drain(); err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, l := range r.Loads() {
			total += l.Completed
		}
		if total != 200 {
			b.Fatalf("completed %d of 200", total)
		}
	}
}

// BenchmarkClusterSkewedIngest is the adversarial scenario behind the
// PR-6 throughput gate, as a benchmark pair: pinned placement jams the
// whole load through one of four masters; the "none" variant serves it
// serially, the stealing variants let the rebalancer spread it. Both
// sleep on a scaled real clock; this benchmark exists so benchstat can
// localize a regression to the serving side.
func BenchmarkClusterSkewedIngest(b *testing.B) {
	for _, steal := range []string{"none", "threshold", "het-aware"} {
		b.Run(steal, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				srv, err := schedd.New(schedd.Config{
					Platform: core.NewPlatform(
						[]float64{1, 1, 1, 1, 1, 1, 1, 1},
						[]float64{1, 2, 3, 4, 1, 2, 3, 4}),
					Policy:        "LS",
					Shards:        4,
					Placement:     "pinned",
					Partition:     core.PartitionBalanced,
					ClockScale:    50000,
					Steal:         steal,
					StealInterval: 500 * time.Microsecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				for batch := 0; batch < 4; batch++ {
					req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(`{"count":50}`))
					rec := httptest.NewRecorder()
					srv.Handler().ServeHTTP(rec, req)
					if rec.Code != 202 {
						b.Fatalf("POST /v1/jobs: %d %s", rec.Code, rec.Body.String())
					}
				}
				if err := srv.Drain(); err != nil {
					b.Fatal(err)
				}
				if got := srv.Stats().Jobs.Completed; got != 200 {
					b.Fatalf("completed %d of 200 jobs", got)
				}
			}
		})
	}
}

// BenchmarkObsRecord measures the metrics kernel's record path — the
// cost an instrumented hot path pays per observation. Every variant
// must be 0 allocs/op (the obs package's own tests pin this too; here
// the benchgate watches it across commits).
func BenchmarkObsRecord(b *testing.B) {
	reg := obs.NewRegistry()
	counter := reg.Counter("bench_events_total", "events", "")
	gauge := reg.Gauge("bench_depth", "depth", "")
	hist := reg.Histogram("bench_latency_seconds", "latency", "", obs.LatencyBuckets())
	ring := obs.NewAuditRing(256, 4)
	scores := []float64{1, 2, 3, 4}
	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			counter.Inc()
		}
	})
	b.Run("gauge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gauge.Set(int64(i))
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hist.Observe(float64(i%1000) * 0.001)
		}
	})
	b.Run("audit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ring.Record(obs.Decision{Kind: obs.DecisionPlace, Job: i, To: i & 3, Scores: scores})
		}
	})
}

// BenchmarkFlightAppend measures the flight recorder's hot append path
// per frame type on a small memory-only ring (64 KiB × 4 segments), so
// steady state includes segment rotation and buffer recycling. The
// warmup drives the ring past its first full rotation before the timer
// starts — after that every sealed segment reuses a recycled buffer and
// the contract is 0 allocs/op, which the CI benchgate hard-gates.
func BenchmarkFlightAppend(b *testing.B) {
	newWarm := func(b *testing.B) *flight.Recorder {
		b.Helper()
		rec, err := flight.New(flight.Config{SegmentBytes: 64 << 10, MaxSegments: 4})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 20000; i++ {
			rec.AppendEvent(0, live.Event{T: float64(i), Kind: live.EvSubmitted, Task: i, Slave: -1})
		}
		return rec
	}
	b.Run("event", func(b *testing.B) {
		rec := newWarm(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.AppendEvent(i&3, live.Event{T: float64(i), Kind: live.EvCompleted, Task: i, Slave: i & 7})
		}
	})
	b.Run("span", func(b *testing.B) {
		rec := newWarm(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := float64(i)
			rec.AppendSpan(i&3, core.Record{
				Task: core.TaskID(i), Slave: i & 7,
				Release: t, SendStart: t + 1, Arrive: t + 2, Start: t + 3, Complete: t + 4,
			})
		}
	})
	b.Run("decision", func(b *testing.B) {
		rec := newWarm(b)
		scores := []float64{1, 2, 3, 4}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.AppendDecision(obs.Decision{
				Kind: obs.DecisionPlace, Policy: "least-loaded",
				Seq: uint64(i), Job: i, From: -1, To: i & 3, Scores: scores,
			})
		}
	})
}

// BenchmarkInstrumentedIngest is the instrumentation-overhead pair:
// BenchmarkClusterPlacement's workload (a fresh router routing 1000
// jobs in 10 batches, least-loaded placement, unstarted cluster) run
// bare and with the decision audit on. Each variant is hard-gated
// across commits; benchstat on the pair localizes audit-path drift. On
// the full admission path the audit's fixed per-batch cost is small
// relative to one ingest op — here it is deliberately magnified against
// the bare placement loop.
func BenchmarkInstrumentedIngest(b *testing.B) {
	pl := core.NewPlatform(
		[]float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
		[]float64{0.5, 1, 1.5, 2, 0.5, 1, 1.5, 2})
	for _, variant := range []struct {
		name  string
		depth int
	}{{"bare", 0}, {"audited", 256}} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := cluster.New(cluster.Config{
					Platform:     pl,
					NewScheduler: func() sim.Scheduler { return sched.New("LS") },
					Shards:       4,
					Placement:    "least-loaded",
					Partition:    core.PartitionBalanced,
					AuditDepth:   variant.depth,
					World:        func(int) live.World { return live.NewRealTime(50000) },
				})
				if err != nil {
					b.Fatal(err)
				}
				for batch := 0; batch < 10; batch++ {
					if _, err := r.SubmitRange(live.JobSpec{}, 100); err != nil {
						b.Fatal(err)
					}
				}
				if r.Jobs() != 1000 {
					b.Fatalf("routed %d of 1000", r.Jobs())
				}
			}
		})
	}
}

// BenchmarkFirehoseIngest isolates the firehose admission path: 10
// SubmitRange batches of 1000 jobs into an unstarted 4-shard cluster
// whose intake queues are deep enough to hold everything (nothing
// drains, nothing sleeps). One op pays one PickBatch, the global-ID
// bookkeeping and the slab enqueue per batch — the exact work the
// 1M-job stream endpoint repeats per NDJSON line. CPU-bound, fully
// gated; the allocs/op column divided by 10000 jobs is the ≤1 alloc/job
// contract.
func BenchmarkFirehoseIngest(b *testing.B) {
	pl := core.NewPlatform(
		[]float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
		[]float64{0.5, 1, 1.5, 2, 0.5, 1, 1.5, 2})
	for _, placement := range []string{"round-robin", "least-loaded", "het-aware"} {
		b.Run(placement, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := cluster.New(cluster.Config{
					Platform:     pl,
					NewScheduler: func() sim.Scheduler { return sched.New("LS") },
					Shards:       4,
					Placement:    placement,
					Partition:    core.PartitionBalanced,
					World:        func(int) live.World { return live.NewRealTime(50000) },
					Firehose:     &cluster.FirehoseConfig{QueueDepth: 16384},
				})
				if err != nil {
					b.Fatal(err)
				}
				for batch := 0; batch < 10; batch++ {
					if _, err := r.SubmitRange(live.JobSpec{}, 1000); err != nil {
						b.Fatal(err)
					}
				}
				if r.Jobs() != 10000 {
					b.Fatalf("routed %d of 10000", r.Jobs())
				}
			}
		})
	}
}

// BenchmarkPickBatch measures the batched placement decision alone: one
// PickBatch call scoring a 1000-job batch against a fixed 4-shard
// cluster with synthetic skewed loads. This is the decision every
// submission amortizes over its whole batch. CPU-bound, fully gated.
func BenchmarkPickBatch(b *testing.B) {
	pl := core.NewPlatform(
		[]float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
		[]float64{0.5, 1, 1.5, 2, 0.5, 1, 1.5, 2})
	r, err := cluster.New(cluster.Config{
		Platform:     pl,
		NewScheduler: func() sim.Scheduler { return sched.New("LS") },
		Shards:       4,
		Partition:    core.PartitionBalanced,
		World:        func(int) live.World { return live.NewRealTime(50000) },
	})
	if err != nil {
		b.Fatal(err)
	}
	shards := r.Shards()
	loads := []live.Load{
		{Submitted: 900, Admitted: 900, Completed: 100},
		{Submitted: 400, Admitted: 400, Completed: 200},
		{Submitted: 100, Admitted: 100, Completed: 90},
		{Submitted: 600, Admitted: 600, Completed: 50},
	}
	staged := make([]int, len(shards))
	out := make([]int, 1000)
	scores := make([]float64, len(shards))
	for _, name := range []string{"round-robin", "least-loaded", "het-aware"} {
		policy, err := cluster.NewPlacement(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range staged {
					staged[j] = 0
				}
				policy.PickBatch(shards, loads, staged, live.JobSpec{}, len(out), out, scores)
			}
		})
	}
}

// BenchmarkClusterPlacement isolates the router's admission cost at
// small batches: batched submission into an unstarted 4-shard cluster
// (no slaves running, nothing drains), measuring PickBatch + global-ID
// bookkeeping + the intake enqueue. One op is a fresh router routing
// 1000 jobs in 10 batches, so construction amortizes and the queued
// slabs are reclaimed each iteration. This one is CPU-bound and fully
// gated.
func BenchmarkClusterPlacement(b *testing.B) {
	pl := core.NewPlatform(
		[]float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
		[]float64{0.5, 1, 1.5, 2, 0.5, 1, 1.5, 2})
	for _, placement := range []string{"round-robin", "least-loaded", "het-aware"} {
		b.Run(placement, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := cluster.New(cluster.Config{
					Platform:     pl,
					NewScheduler: func() sim.Scheduler { return sched.New("LS") },
					Shards:       4,
					Placement:    placement,
					Partition:    core.PartitionBalanced,
					World:        func(int) live.World { return live.NewRealTime(50000) },
				})
				if err != nil {
					b.Fatal(err)
				}
				for batch := 0; batch < 10; batch++ {
					if _, err := r.SubmitRange(live.JobSpec{}, 100); err != nil {
						b.Fatal(err)
					}
				}
				if r.Jobs() != 1000 {
					b.Fatalf("routed %d of 1000", r.Jobs())
				}
			}
		})
	}
}

// BenchmarkJobIndexRead measures the router's lock-free read path: Job
// and ShardOf against a populated (unstarted) firehose cluster. One op
// is one lookup pair — three atomic loads through the chunked global
// index and a tracker probe, no mutex anywhere. CPU-bound, fully gated;
// the 0 allocs/op contract itself is cluster.TestJobIndexReadZeroAlloc.
func BenchmarkJobIndexRead(b *testing.B) {
	pl := core.NewPlatform(
		[]float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
		[]float64{0.5, 1, 1.5, 2, 0.5, 1, 1.5, 2})
	r, err := cluster.New(cluster.Config{
		Platform:     pl,
		NewScheduler: func() sim.Scheduler { return sched.New("LS") },
		Shards:       4,
		Placement:    "least-loaded",
		Partition:    core.PartitionBalanced,
		World:        func(int) live.World { return live.NewRealTime(50000) },
		Firehose:     &cluster.FirehoseConfig{QueueDepth: 16384},
	})
	if err != nil {
		b.Fatal(err)
	}
	const jobs = 10000
	for batch := 0; batch < 10; batch++ {
		if _, err := r.SubmitRange(live.JobSpec{}, 1000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gid := i % jobs
		if _, ok := r.ShardOf(gid); !ok {
			b.Fatalf("gid %d unrouted", gid)
		}
		if _, ok := r.Job(gid); !ok {
			b.Fatalf("gid %d missing", gid)
		}
	}
}

// BenchmarkConcurrentFirehose measures the sharded intake under
// contention: 4 producer goroutines each pushing 16 SubmitRange batches
// of 256 jobs into a fresh unstarted cluster (intake deep enough that
// nothing blocks). One op is the whole 16384-job burst — the workload
// the per-shard intake locks were split for; compare its per-job cost
// against single-producer BenchmarkFirehoseIngest to see the remaining
// serialization (placement only). CPU-bound; ns/op is machine-load
// sensitive under parallelism, so CI gates allocs/op only (via the
// standard gate's alloc column).
func BenchmarkConcurrentFirehose(b *testing.B) {
	pl := core.NewPlatform(
		[]float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
		[]float64{0.5, 1, 1.5, 2, 0.5, 1, 1.5, 2})
	const producers, batches, per = 4, 16, 256
	const total = producers * batches * per
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, err := cluster.New(cluster.Config{
			Platform:     pl,
			NewScheduler: func() sim.Scheduler { return sched.New("LS") },
			Shards:       4,
			Placement:    "least-loaded",
			Partition:    core.PartitionBalanced,
			World:        func(int) live.World { return live.NewRealTime(50000) },
			Firehose:     &cluster.FirehoseConfig{QueueDepth: 2 * total},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for batch := 0; batch < batches; batch++ {
					if _, err := r.SubmitRange(live.JobSpec{}, per); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if r.Jobs() != total {
			b.Fatalf("routed %d of %d", r.Jobs(), total)
		}
	}
}
