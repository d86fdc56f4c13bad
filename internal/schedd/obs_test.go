package schedd

// Observability surface tests: the Prometheus exposition and JSON vars,
// readiness vs liveness, per-job span traces (including error paths),
// the decision audit, pprof gating, and a scrape-under-load race test.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
)

func newTestHTTP(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func scrape(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestMetricsExposition(t *testing.T) {
	_, ts := testServer(t, "LS")
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 8}, nil); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}
	waitCompleted(t, ts, 8)

	code, body, ctype := scrape(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ctype)
	}
	for _, want := range []string{
		"# TYPE schedd_jobs_submitted_total counter",
		"# TYPE schedd_queue_depth gauge",
		"# TYPE schedd_job_latency_seconds histogram",
		`schedd_jobs_submitted_total{shard="0"} 8`,
		`schedd_jobs_completed_total{shard="0"} 8`,
		`schedd_job_latency_seconds_count 8`,
		`le="+Inf"`,
		"schedd_uptime_seconds",
		"schedd_draining 0",
		`schedd_http_requests_total{route="jobs"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, body)
		}
	}

	// /debug/vars: the same registry as flat JSON, with matching counts.
	code, body, ctype = scrape(t, ts.URL+"/debug/vars")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("GET /debug/vars: %d %q", code, ctype)
	}
	vars := map[string]any{}
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("vars not JSON: %v", err)
	}
	if got := vars[`schedd_jobs_completed_total{shard="0"}`]; got != 8.0 {
		t.Fatalf("vars completed = %v, want 8", got)
	}
}

func TestMetricsDisabled(t *testing.T) {
	s, err := New(Config{
		Platform:       core.NewPlatform([]float64{1}, []float64{2}),
		Policy:         "LS",
		ClockScale:     4000,
		DisableMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestHTTP(t, s)
	for _, path := range []string{"/metrics", "/debug/vars"} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusNotFound {
			t.Fatalf("GET %s with metrics off: %d", path, code)
		}
	}
	// The service itself still works.
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 2}, nil); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestPprofGating(t *testing.T) {
	// Off by default.
	_, ts := testServer(t, "LS")
	if code := getJSON(t, ts.URL+"/debug/pprof/", nil); code != http.StatusNotFound {
		t.Fatalf("pprof reachable without -pprof: %d", code)
	}
	// Opt-in mounts the index.
	s, err := New(Config{
		Platform:   core.NewPlatform([]float64{1}, []float64{2}),
		Policy:     "LS",
		ClockScale: 4000,
		Pprof:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newTestHTTP(t, s)
	code, body, _ := scrape(t, ts2.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: %d", code)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestReadyzAcrossDrain(t *testing.T) {
	s, err := New(Config{
		Platform: core.NewPlatform(
			[]float64{0.2, 0.2, 0.2, 0.2},
			[]float64{1, 1, 1, 1}),
		Policy:        "LS",
		Shards:        2,
		ClockScale:    4000,
		Steal:         "threshold",
		StealInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestHTTP(t, s)

	var ready ReadyResponse
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusOK {
		t.Fatalf("GET /readyz: %d", code)
	}
	if !ready.Ready || ready.Draining || len(ready.Shards) != 2 {
		t.Fatalf("ready %+v", ready)
	}
	for _, sh := range ready.Shards {
		if sh.LiveSlaves != 2 || sh.Draining {
			t.Fatalf("shard row %+v", sh)
		}
	}
	// With stealing on the rebalancer age is reported (-1 until the
	// first pass, then a real age).
	if ready.StealLastPassAgeSeconds == nil {
		t.Fatal("no steal last-pass age with stealing on")
	}

	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	// Liveness stays 200; readiness flips to 503.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after drain: %d", code)
	}
	var after ReadyResponse
	if code := getJSON(t, ts.URL+"/readyz", &after); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d", code)
	}
	if after.Ready || !after.Draining {
		t.Fatalf("drained readiness %+v", after)
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, ts := testServer(t, "LS")
	var resp SubmitResponse
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 6}, &resp); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}
	waitCompleted(t, ts, 6)

	for _, id := range resp.IDs {
		var tr TraceResponse
		if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/jobs/%d/trace", id), &tr); code != http.StatusOK {
			t.Fatalf("GET trace %d: %d", id, code)
		}
		if tr.Job != id || tr.State != live.StateDone || tr.ClockScale != 4000 {
			t.Fatalf("trace %+v", tr)
		}
		// Completed jobs carry the full four-stage decomposition, in
		// lifecycle order, contiguous, tiling the root interval.
		if len(tr.Span.Stages) != 4 {
			t.Fatalf("job %d: %d stages", id, len(tr.Span.Stages))
		}
		for i, name := range obs.StageNames() {
			st := tr.Span.Stages[i]
			if st.Name != name || st.Duration() < 0 {
				t.Fatalf("job %d stage %d = %+v, want %s", id, i, st, name)
			}
			if i > 0 && tr.Span.Stages[i-1].End != st.Start {
				t.Fatalf("job %d stages not contiguous", id)
			}
		}
		if tr.Span.Stages[0].Start != tr.Span.Start || tr.Span.Stages[3].End != tr.Span.End {
			t.Fatalf("job %d span does not tile: %+v", id, tr.Span)
		}
	}

	// Error paths.
	if code := getJSON(t, ts.URL+"/v1/jobs/xyz/trace", nil); code != http.StatusBadRequest {
		t.Fatalf("malformed trace id: %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/99999/trace", nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace id: %d", code)
	}
}

func TestDecisionsEndpoint(t *testing.T) {
	s, ts := shardedServer(t, "least-loaded")
	// One decision per submission, whatever its count: five single-job
	// posts, then one batch of four.
	var ids []int
	for i := 0; i < 5; i++ {
		var resp SubmitResponse
		if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{}, &resp); code != http.StatusAccepted {
			t.Fatalf("POST /v1/jobs: %d", code)
		}
		ids = append(ids, resp.IDs...)
	}
	var batch SubmitResponse
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 4}, &batch); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}

	var dec DecisionsResponse
	if code := getJSON(t, ts.URL+"/v1/decisions", &dec); code != http.StatusOK {
		t.Fatalf("GET /v1/decisions: %d", code)
	}
	if !dec.Enabled || len(dec.Decisions) != 6 {
		t.Fatalf("decisions %+v", dec)
	}
	// Newest first: the batch leads as one decision naming its first ID
	// and size, then the last single job; every placement carries one
	// score per shard with the chosen shard weakly best.
	if d := dec.Decisions[0]; d.Job != batch.IDs[0] || d.Planned != 4 || d.N != 4 {
		t.Fatalf("batch decision %+v, want job %d planned 4 n 4", d, batch.IDs[0])
	}
	if dec.Decisions[1].Job != ids[4] || dec.Decisions[1].N != 1 {
		t.Fatalf("second-newest decision %+v, want single job %d", dec.Decisions[1], ids[4])
	}
	for _, d := range dec.Decisions {
		if d.Kind != obs.DecisionPlace || len(d.Scores) != 3 {
			t.Fatalf("decision %+v", d)
		}
		for _, sc := range d.Scores {
			if d.Scores[d.To] > sc {
				t.Fatalf("chose shard %d with scores %v", d.To, d.Scores)
			}
		}
	}

	// ?limit caps the window; a bad limit is a 400.
	var one DecisionsResponse
	if code := getJSON(t, ts.URL+"/v1/decisions?limit=1", &one); code != http.StatusOK || len(one.Decisions) != 1 {
		t.Fatalf("decisions?limit=1: %d %+v", code, one)
	}
	for _, bad := range []string{"0", "-3", "many"} {
		if code := getJSON(t, ts.URL+"/v1/decisions?limit="+bad, nil); code != http.StatusBadRequest {
			t.Fatalf("decisions?limit=%s: %d", bad, code)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestDecisionsDisabled(t *testing.T) {
	s, err := New(Config{
		Platform:   core.NewPlatform([]float64{1}, []float64{2}),
		Policy:     "LS",
		ClockScale: 4000,
		AuditDepth: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestHTTP(t, s)
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 3}, nil); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}
	var dec DecisionsResponse
	if code := getJSON(t, ts.URL+"/v1/decisions", &dec); code != http.StatusOK {
		t.Fatalf("GET /v1/decisions: %d", code)
	}
	if dec.Enabled || len(dec.Decisions) != 0 {
		t.Fatalf("audit off but decisions = %+v", dec)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsStageBreakdown(t *testing.T) {
	_, ts := testServer(t, "SO-LS")
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 10}, nil); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}
	stats := waitCompleted(t, ts, 10)
	b := stats.StageSeconds
	if b == nil || b.Jobs != 10 {
		t.Fatalf("stage breakdown %+v", b)
	}
	// Wall-clock domain: at clock scale 4000 the model-seconds service
	// times (a few seconds) shrink to well under a second.
	for _, st := range []obs.StageSummary{b.Queue, b.Transfer, b.SlaveWait, b.Service} {
		if st.Mean < 0 || st.Max < st.Mean || st.Max > 1 {
			t.Fatalf("stage summary %+v out of range", st)
		}
	}
	if b.Service.Max <= 0 || b.Transfer.Max <= 0 {
		t.Fatalf("service/transfer stages empty: %+v", b)
	}
	// Per-shard sections carry their own breakdowns, which together
	// cover every job the cluster view covers.
	jobs := 0
	for _, sec := range stats.PerShard {
		if sec.StageSeconds != nil {
			jobs += sec.StageSeconds.Jobs
		}
	}
	if jobs != 10 {
		t.Fatalf("per-shard breakdowns cover %d jobs, want 10", jobs)
	}
}

// TestScrapeUnderLoad races every read-only observability endpoint
// against live submissions and the rebalancer. Run under -race in CI:
// the assertion is simply that nothing tears, panics or 500s.
// populationMonotone checks one /metrics body: on every shard the
// population families read completed ≤ dispatched ≤ submitted — they come
// from one Load sample per shard, so no scrape can show a job further
// along than an earlier stage has counted it.
func populationMonotone(body string) error {
	re := regexp.MustCompile(`(?m)^schedd_jobs_(submitted|dispatched|completed)_total\{shard="(\d+)"\} (\d+)$`)
	stages := map[string]map[string]int{}
	for _, m := range re.FindAllStringSubmatch(body, -1) {
		if stages[m[2]] == nil {
			stages[m[2]] = map[string]int{}
		}
		stages[m[2]][m[1]], _ = strconv.Atoi(m[3])
	}
	if len(stages) == 0 {
		return errors.New("no schedd_jobs_*_total series in the scrape")
	}
	for shard, c := range stages {
		if len(c) != 3 || c["completed"] > c["dispatched"] || c["dispatched"] > c["submitted"] {
			return fmt.Errorf("shard %s: completed %d, dispatched %d, submitted %d", shard, c["completed"], c["dispatched"], c["submitted"])
		}
	}
	return nil
}

func TestScrapeUnderLoad(t *testing.T) {
	s, err := New(Config{
		Platform: core.NewPlatform(
			[]float64{0.2, 0.2, 0.2, 0.2, 0.2, 0.2},
			[]float64{1, 1, 1, 1, 1, 1}),
		Policy:        "LS",
		Shards:        3,
		Placement:     "pinned",
		ClockScale:    2000,
		Steal:         "threshold",
		StealInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestHTTP(t, s)

	var firstID int
	var resp SubmitResponse
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 10}, &resp); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}
	firstID = resp.IDs[0]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers: keep the cluster busy and the audit ring churning.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 20}, nil); code != http.StatusAccepted {
				t.Errorf("POST /v1/jobs under load: %d", code)
				return
			}
		}
	}()
	// Readers: hammer every observability endpoint until writers finish.
	paths := []string{
		"/metrics", "/debug/vars", "/v1/stats", "/v1/decisions", "/readyz", "/healthz",
		fmt.Sprintf("/v1/jobs/%d/trace", firstID),
	}
	for _, path := range paths {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, body, _ := scrape(t, ts.URL+path)
				if code != http.StatusOK {
					t.Errorf("GET %s under load: %d", path, code)
					return
				}
				if path == "/metrics" {
					if err := populationMonotone(body); err != nil {
						t.Errorf("scrape under load: %v", err)
						return
					}
				}
			}
		}(path)
	}
	waitCompleted(t, ts, 10+20*20)
	close(stop)
	wg.Wait()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}
