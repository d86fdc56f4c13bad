package schedd

// End-to-end service tests over real HTTP (httptest): submit a burst,
// poll until completion, check per-job lifecycle, stats shape and the
// drain protocol.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
)

func testServer(t *testing.T, policy string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Platform:   core.NewPlatform([]float64{0.5, 1, 2}, []float64{2, 4, 5}),
		Policy:     policy,
		ClockScale: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func waitCompleted(t *testing.T, ts *httptest.Server, want int) StatsResponse {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var stats StatsResponse
		if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
			t.Fatalf("GET /v1/stats: %d", code)
		}
		if stats.Jobs.Completed >= want {
			return stats
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d completions", want)
	return StatsResponse{}
}

func TestServiceEndToEnd(t *testing.T) {
	s, ts := testServer(t, "LS")

	// Health first.
	var health HealthResponse
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || !health.OK {
		t.Fatalf("healthz: %d %+v", code, health)
	}
	if health.Policy != "LS" {
		t.Fatalf("policy %q", health.Policy)
	}

	// Submit a burst: 3 batches of 8.
	const batches, per = 3, 8
	seen := map[int]bool{}
	for b := 0; b < batches; b++ {
		var resp SubmitResponse
		if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: per}, &resp); code != http.StatusAccepted {
			t.Fatalf("POST /v1/jobs: %d", code)
		}
		if len(resp.IDs) != per {
			t.Fatalf("batch %d: got %d ids", b, len(resp.IDs))
		}
		for _, id := range resp.IDs {
			if seen[id] {
				t.Fatalf("duplicate id %d", id)
			}
			seen[id] = true
		}
	}

	stats := waitCompleted(t, ts, batches*per)
	if stats.Jobs.Submitted != batches*per || stats.Jobs.Completed != batches*per {
		t.Fatalf("stats jobs %+v", stats.Jobs)
	}
	if stats.LatencySeconds == nil || stats.LatencySeconds.P95 <= 0 ||
		stats.LatencySeconds.P99 < stats.LatencySeconds.P95 || stats.LatencySeconds.P50 <= 0 {
		t.Fatalf("latency stats %+v", stats.LatencySeconds)
	}
	if stats.ThroughputJobsPerSec <= 0 {
		t.Fatalf("throughput %v", stats.ThroughputJobsPerSec)
	}
	if stats.Trace == nil || stats.Trace.Makespan <= 0 || len(stats.Trace.Slaves) != 3 {
		t.Fatalf("trace %+v", stats.Trace)
	}

	// Every job's lifecycle is visible and monotone.
	for id := range seen {
		var job JobResponse
		if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/jobs/%d", id), &job); code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%d: %d", id, code)
		}
		if job.State != live.StateDone {
			t.Fatalf("job %d state %q", id, job.State)
		}
		if job.LatencySeconds <= 0 {
			t.Fatalf("job %d latency %v", id, job.LatencySeconds)
		}
		if job.SendStart < job.Submitted || job.Complete < job.Start {
			t.Fatalf("job %d non-monotone %+v", id, job)
		}
	}

	// Unknown and malformed ids.
	if code := getJSON(t, ts.URL+"/v1/jobs/99999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/xyz", nil); code != http.StatusBadRequest {
		t.Fatalf("malformed job id: %d", code)
	}

	// Drain: clean shutdown, then submissions are refused.
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 1}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: %d", code)
	}
	var after HealthResponse
	if code := getJSON(t, ts.URL+"/healthz", &after); code != http.StatusOK || !after.Draining {
		t.Fatalf("healthz after drain: %d %+v", code, after)
	}
}

func TestServiceDrainCompletesOutstanding(t *testing.T) {
	s, ts := testServer(t, "SO-LS")
	var resp SubmitResponse
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 20}, &resp); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}
	// Drain immediately: every accepted job must still complete.
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	counts := s.Counts()
	if counts.Completed != 20 {
		t.Fatalf("drained with %d of 20 complete", counts.Completed)
	}
}

func TestServiceRejectsBadRequests(t *testing.T) {
	_, ts := testServer(t, "SRPT")
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: -1}, nil); code != http.StatusBadRequest {
		t.Fatalf("negative count: %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 1, CommScale: -2}, nil); code != http.StatusBadRequest {
		t.Fatalf("negative scale: %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", resp.StatusCode)
	}
}

func TestServiceConfigValidation(t *testing.T) {
	pl := core.NewPlatform([]float64{1}, []float64{1})
	if _, err := New(Config{Platform: pl, Policy: "FCFS"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := New(Config{Policy: "LS"}); err == nil {
		t.Fatal("empty platform accepted")
	}
	if _, err := New(Config{Platform: pl, Policy: "LS", Shards: 2}); err == nil {
		t.Fatal("more shards than slaves accepted")
	}
	if _, err := New(Config{Platform: pl, Policy: "LS", Placement: "best-effort"}); err == nil {
		t.Fatal("unknown placement accepted")
	}
	if _, err := New(Config{Platform: pl, Policy: "LS", Partition: "zigzag"}); err == nil {
		t.Fatal("unknown partition strategy accepted")
	}
	// Every extended policy (the paper seven + SO-LS) must be servable:
	// this is the flag-validation contract of cmd/schedd.
	srv, err := New(Config{Platform: pl, Policy: "SO-LS", ClockScale: 4000})
	if err != nil {
		t.Fatalf("SO-LS rejected: %v", err)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
}

// shardedServer builds a 3-shard service over a 6-slave platform.
func shardedServer(t *testing.T, placement string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Platform: core.NewPlatform(
			[]float64{0.2, 0.4, 0.2, 0.4, 0.2, 0.4},
			[]float64{1, 2, 1, 2, 1, 2}),
		Policy:     "LS",
		Shards:     3,
		Placement:  placement,
		Partition:  core.PartitionBalanced,
		ClockScale: 8000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestShardedServiceEndToEnd(t *testing.T) {
	s, ts := shardedServer(t, "least-loaded")

	var health HealthResponse
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || !health.OK {
		t.Fatalf("healthz: %d %+v", code, health)
	}
	if health.Shards != 3 || len(health.ShardQueueDepths) != 3 {
		t.Fatalf("healthz shards %+v", health)
	}

	const jobs = 60
	var resp SubmitResponse
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: jobs}, &resp); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}
	if len(resp.IDs) != jobs {
		t.Fatalf("got %d ids", len(resp.IDs))
	}
	stats := waitCompleted(t, ts, jobs)

	// Merged view: counts add up, shape is the sharded one.
	if stats.Shards != 3 || stats.Placement != "least-loaded" || stats.Partition != "balanced" {
		t.Fatalf("cluster stanza %+v", stats)
	}
	if stats.Jobs.Submitted != jobs || stats.Jobs.Completed != jobs {
		t.Fatalf("merged jobs %+v", stats.Jobs)
	}
	if len(stats.PerShard) != 3 {
		t.Fatalf("%d shard sections", len(stats.PerShard))
	}
	sum := 0
	slaveSeen := map[int]bool{}
	for _, sec := range stats.PerShard {
		sum += sec.Jobs.Completed
		if sec.QueueDepth != 0 {
			t.Fatalf("shard %d queue depth %d after completion", sec.Shard, sec.QueueDepth)
		}
		for _, j := range sec.Slaves {
			if slaveSeen[j] {
				t.Fatalf("slave %d in two shard sections", j)
			}
			slaveSeen[j] = true
		}
		if sec.Trace != nil {
			for _, st := range sec.Trace.Slaves {
				if !slaveSeen[st.Slave] {
					t.Fatalf("shard %d trace names unowned slave %d", sec.Shard, st.Slave)
				}
			}
		}
	}
	if sum != jobs {
		t.Fatalf("per-shard completions sum to %d, want %d", sum, jobs)
	}
	if len(slaveSeen) != 6 {
		t.Fatalf("shard sections cover %d of 6 slaves", len(slaveSeen))
	}
	if stats.Trace == nil || len(stats.Trace.Slaves) != 6 {
		t.Fatalf("merged trace %+v", stats.Trace)
	}
	if stats.LatencySeconds == nil || stats.LatencySeconds.P95 <= 0 {
		t.Fatalf("merged latency %+v", stats.LatencySeconds)
	}

	// Job lookups speak global IDs and global slave indices.
	var job JobResponse
	if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/jobs/%d", resp.IDs[jobs-1]), &job); code != http.StatusOK {
		t.Fatalf("GET job: %d", code)
	}
	if job.State != live.StateDone || job.ID != resp.IDs[jobs-1] {
		t.Fatalf("job %+v", job)
	}
	if job.Shard < 0 || job.Shard > 2 || !slaveSeen[job.Slave] {
		t.Fatalf("job placement %+v", job)
	}

	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestStealingServiceEndToEnd is the stealing smoke test: a 3-shard
// service with adversarially pinned placement and the threshold
// rebalancer takes 1000 jobs over HTTP. Pinned placement sends every
// job to shard 0 — without stealing two of the three masters would
// never see work — so completion of the full load with a nonzero steal
// count proves migration moved real jobs and lost none. Run under
// -race in CI.
func TestStealingServiceEndToEnd(t *testing.T) {
	s, err := New(Config{
		Platform: core.NewPlatform(
			[]float64{0.2, 0.2, 0.2, 0.2, 0.2, 0.2},
			[]float64{1, 1, 1, 1, 1, 1}),
		Policy:        "LS",
		Shards:        3,
		Placement:     "pinned",
		Partition:     core.PartitionStriped,
		ClockScale:    2000,
		Steal:         "threshold",
		StealInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const jobs = 1000
	for b := 0; b < 10; b++ {
		var resp SubmitResponse
		if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: jobs / 10}, &resp); code != http.StatusAccepted {
			t.Fatalf("POST /v1/jobs: %d", code)
		}
	}
	// Settle before draining: Drain stops the rebalancer first, so on a
	// loaded machine an immediate drain can close the steal window
	// before the first 2ms tick ever fires. Polling to completion keeps
	// the rebalancer alive for the whole pinned-backlog drain-down
	// (~100ms of model-serial sends on shard 0 alone — dozens of ticks).
	waitCompleted(t, ts, jobs)
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", code)
	}
	// The merged count is net of migration: every job exactly once.
	if stats.Jobs.Submitted != jobs || stats.Jobs.Completed != jobs {
		t.Fatalf("merged jobs %+v, want %d submitted and completed", stats.Jobs, jobs)
	}
	if stats.Steal == nil || stats.Steal.Policy != "threshold" || stats.Steal.Passes == 0 {
		t.Fatalf("steal stanza %+v", stats.Steal)
	}
	if stats.Steal.JobsMoved == 0 {
		t.Fatal("rebalancer moved nothing off a fully pinned 1000-job load")
	}
	// Per-shard sections: net populations sum to the total, and the
	// stolen-to shards actually completed work.
	net, offPinned := 0, 0
	for _, sec := range stats.PerShard {
		net += sec.Jobs.Submitted - sec.Jobs.Stolen
		if sec.Shard != 0 {
			offPinned += sec.Jobs.Completed
		}
	}
	if net != jobs {
		t.Fatalf("per-shard net populations sum to %d, want %d", net, jobs)
	}
	if offPinned == 0 {
		t.Fatalf("no work completed off the pinned shard: %+v", stats.PerShard)
	}

	var health HealthResponse
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("GET /healthz: %d", code)
	}
	if health.Steals == 0 || int64(health.Steals) != stats.Steal.JobsMoved {
		t.Fatalf("healthz steals %d, stats moved %d", health.Steals, stats.Steal.JobsMoved)
	}
}

func TestStealConfigValidation(t *testing.T) {
	pl := core.NewPlatform([]float64{1, 1}, []float64{2, 2})
	if _, err := New(Config{Platform: pl, Policy: "LS", Shards: 2, Steal: "grand-theft"}); err == nil {
		t.Fatal("unknown steal policy accepted")
	}
	// Stealing off (default): no rebalancer, no stats stanza, zero steals.
	s, err := New(Config{Platform: pl, Policy: "LS", Shards: 2, ClockScale: 4000})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 4}, nil); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", code)
	}
	if stats.Steal != nil {
		t.Fatalf("steal stanza present with stealing off: %+v", stats.Steal)
	}
	var health HealthResponse
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health.Steals != 0 {
		t.Fatalf("healthz %d %+v", code, health)
	}
}

// TestDrainVsSubmitRace is the drain-vs-submit race regression test:
// POST /v1/jobs racing Drain() must either be accepted — and then the job
// MUST complete before Drain returns — or be refused with 503. No lost
// jobs, no panic. Run under -race in CI.
func TestDrainVsSubmitRace(t *testing.T) {
	for round := 0; round < 5; round++ {
		s, ts := shardedServer(t, "round-robin")
		const producers = 8
		var (
			wg       sync.WaitGroup
			accepted atomic.Int64
		)
		start := make(chan struct{})
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 20; i++ {
					code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 2}, nil)
					switch code {
					case http.StatusAccepted:
						accepted.Add(2)
					case http.StatusServiceUnavailable:
						return
					default:
						t.Errorf("POST /v1/jobs during drain: %d", code)
						return
					}
				}
			}()
		}
		drained := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			drained <- s.Drain()
		}()
		close(start)
		wg.Wait()
		if err := <-drained; err != nil {
			t.Fatalf("drain: %v", err)
		}
		counts := s.Counts()
		if int64(counts.Completed) != accepted.Load() {
			t.Fatalf("round %d: accepted %d jobs, completed %d — a job was lost",
				round, accepted.Load(), counts.Completed)
		}
		// And after Drain has returned, submissions still get 503.
		if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 1}, nil); code != http.StatusServiceUnavailable {
			t.Fatalf("round %d: submit after drain: %d", round, code)
		}
	}
}

// TestNewSetupAllocation counts what standing up a four-shard service
// costs, on each clock: every byte schedd.New allocates, as a
// runtime.MemStats.TotalAlloc delta. Nothing per shard may be sized for
// a run's history up front — a per-shard buffer of tens of thousands of
// entries alone would break the 2 MiB floor.
func TestNewSetupAllocation(t *testing.T) {
	const floor = 2 << 20
	pl := core.NewPlatform(
		[]float64{0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.1, 0.2},
		[]float64{0.4, 0.8, 0.4, 0.8, 0.4, 0.8, 0.4, 0.8})
	for _, virtual := range []bool{false, true} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := New(Config{Platform: pl, Policy: "LS", Shards: 4, VirtualClock: virtual, ClockScale: 1000})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= floor {
			t.Fatalf("virtual=%v: schedd.New allocated %d B, want < %d", virtual, got, floor)
		}
	}
}
