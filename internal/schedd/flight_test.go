package schedd

// Tests for the PR-8 surface: the flight-recorder tap (GET /v1/flight and
// on-disk segments), the /v1/watch SSE stream, the SLO burn-rate endpoint,
// and the bounded /v1/decisions limit parameter.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

func TestFlightEndpoint(t *testing.T) {
	s, ts := testServer(t, "LS")
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 6}, nil); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}
	waitCompleted(t, ts, 6)

	resp, err := http.Get(ts.URL + "/v1/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/flight: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := flight.Parse(raw)
	if err != nil {
		t.Fatalf("recording does not parse: %v", err)
	}
	// The recording carries the startup meta frame, every lifecycle
	// event, one span per completed job, and the audit's one placement
	// decision for the batch (audit is on by default).
	meta := rec.Meta()
	if len(meta) != 1 || !strings.Contains(string(meta[0]), `"policy":"LS"`) {
		t.Fatalf("meta frames %q", meta)
	}
	if spans := rec.Spans(); len(spans) != 6 {
		t.Fatalf("%d span frames, want 6", len(spans))
	}
	if evs := rec.Events(); len(evs) < 6*4 {
		t.Fatalf("only %d event frames for 6 jobs", len(evs))
	}
	if decs := rec.Decisions(); len(decs) != 1 || decs[0].N != 6 {
		t.Fatalf("decision frames %+v, want one covering the 6-job batch", decs)
	}

	// The /v1/stats recorder and watch stanzas report the same recording.
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", code)
	}
	if stats.Recorder == nil || stats.Recorder.Frames == 0 || stats.Recorder.Segments < 1 {
		t.Fatalf("recorder stanza %+v", stats.Recorder)
	}
	if stats.Watch == nil || stats.Watch.Subscribers != 0 {
		t.Fatalf("watch stanza %+v", stats.Watch)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestCompletionSinkEndToEnd pins the per-event sink on a virtual-clock
// service, through the production path: after a drain the recording holds
// each completed job's five lifecycle events and exactly one span frame,
// the span is the job's Router.Job record re-expressed in the shard's
// local indices, and the completion feeds behind the same sink — the
// job-latency histogram and a latency SLO — have counted every job once.
func TestCompletionSinkEndToEnd(t *testing.T) {
	s, err := New(Config{
		Platform: core.NewPlatform(
			[]float64{0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.1, 0.2},
			[]float64{0.4, 0.8, 0.4, 0.8, 0.4, 0.8, 0.4, 0.8}),
		Policy:       "LS",
		Shards:       2,
		Placement:    "least-loaded",
		VirtualClock: true,
		SLOs:         []obs.Objective{{Name: "job-p99", Kind: obs.ObjectiveLatency, ThresholdSeconds: 5, Target: 0.99}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestHTTP(t, s)
	const jobs = 60
	for _, a := range streamLines(t, ts, "{\"count\":25}\n{\"count\":15,\"comp_scale\":2}\n{\"count\":20,\"comm_scale\":0.5}\n") {
		if a.Error != "" {
			t.Fatalf("ack %+v", a)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if c := s.Counts(); c.Completed != jobs {
		t.Fatalf("completed %d of %d", c.Completed, jobs)
	}

	_, raw, _ := scrape(t, ts.URL+"/v1/flight")
	rec, err := flight.Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ shard, task int }
	kinds := map[key][]live.EventKind{}
	for _, e := range rec.Events() {
		k := key{e.Shard, e.Event.Task}
		kinds[k] = append(kinds[k], e.Event.Kind)
	}
	spans := map[key]core.Record{}
	for _, sp := range rec.Spans() {
		k := key{sp.Shard, int(sp.Record.Task)}
		if _, dup := spans[k]; dup {
			t.Fatalf("two span frames for shard %d task %d", k.shard, k.task)
		}
		spans[k] = sp.Record
	}
	if len(kinds) != jobs || len(spans) != jobs {
		t.Fatalf("recording covers %d jobs with events and %d with spans, want %d", len(kinds), len(spans), jobs)
	}
	lifecycle := []live.EventKind{live.EvSubmitted, live.EvSent, live.EvArrived, live.EvStarted, live.EvCompleted}
	// A firehose shard has one submitter, so its local IDs follow global
	// ID order: the k-th global ID placed on a shard is its local job k.
	nextLocal := make([]int, len(s.Router().Shards()))
	for gid := 0; gid < jobs; gid++ {
		info, ok := s.Router().Job(gid)
		shard, placed := s.Router().ShardOf(gid)
		if !ok || !placed || info.State != live.StateDone {
			t.Fatalf("job %d: %+v (ok %v, placed %v)", gid, info, ok, placed)
		}
		k := key{shard, nextLocal[shard]}
		nextLocal[shard]++
		if got := kinds[k]; !slices.Equal(got, lifecycle) {
			t.Fatalf("job %d (shard %d local %d): event frames %v, want %v", gid, k.shard, k.task, got, lifecycle)
		}
		want := info.Record()
		want.Task = core.TaskID(k.task)
		want.Slave = slices.Index(s.Router().Shards()[shard].Slaves(), info.Slave)
		if spans[k] != want {
			t.Fatalf("job %d: span frame %+v, want %+v", gid, spans[k], want)
		}
	}

	_, body, _ := scrape(t, ts.URL+"/metrics")
	for _, want := range []string{
		fmt.Sprintf("schedd_job_latency_seconds_count %d\n", jobs),
		fmt.Sprintf("schedd_slo_events_total{objective=\"job-p99\"} %d\n", jobs),
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, body)
		}
	}
}

func TestFlightDisabled(t *testing.T) {
	s, err := New(Config{
		Platform:        core.NewPlatform([]float64{1}, []float64{2}),
		Policy:          "LS",
		ClockScale:      4000,
		DisableRecorder: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestHTTP(t, s)
	if code := getJSON(t, ts.URL+"/v1/flight", nil); code != http.StatusNotFound {
		t.Fatalf("GET /v1/flight with recorder off: %d", code)
	}
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", code)
	}
	if stats.Recorder != nil {
		t.Fatalf("recorder stanza present with recorder off: %+v", stats.Recorder)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestFlightPersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{
		Platform:           core.NewPlatform([]float64{0.5, 1}, []float64{2, 4}),
		Policy:             "LS",
		ClockScale:         4000,
		RecordDir:          dir,
		RecordSegmentBytes: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestHTTP(t, s)
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 40}, nil); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}
	waitCompleted(t, ts, 40)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	// After drain the recording is on disk, complete through the last
	// completion.
	rec, err := flight.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Frames) == 0 {
		t.Fatal("empty on-disk recording")
	}
	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans in on-disk recording")
	}
}

func TestFailedStartKeepsPreviousRecording(t *testing.T) {
	// flight.New clears seg-*.flight from RecordDir, so a configuration
	// the cluster rejects must be rejected before the recorder is built.
	for name, bad := range map[string]Config{
		"unknown placement": {Placement: "typo"},
		"too many shards":   {Shards: 3},
		"unknown partition": {Partition: "typo"},
	} {
		dir := t.TempDir()
		seg := filepath.Join(dir, "seg-00000001.flight")
		if err := os.WriteFile(seg, []byte("last run's post-mortem"), 0o644); err != nil {
			t.Fatal(err)
		}
		bad.Platform = core.NewPlatform([]float64{0.5, 1}, []float64{2, 4})
		bad.Policy = "LS"
		bad.RecordDir = dir
		if _, err := New(bad); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if _, err := os.Stat(seg); err != nil {
			t.Fatalf("%s: the failed start wiped the previous recording: %v", name, err)
		}
	}
}

func TestWatchStream(t *testing.T) {
	s, ts := testServer(t, "LS")
	resp, err := http.Get(ts.URL + "/v1/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/watch: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	// Wait for the subscription to land before submitting, so the
	// submitted jobs' events are guaranteed to be published.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats StatsResponse
		getJSON(t, ts.URL+"/v1/stats", &stats)
		if stats.Watch != nil && stats.Watch.Subscribers == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 3}, nil); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}

	// Read SSE lines until a completion shows up.
	sc := bufio.NewScanner(resp.Body)
	kinds, slaves := map[string]bool{}, map[int]bool{}
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		// Slave is on every line — -1 while unassigned, and slave 0 as
		// "slave":0, not as an absent field. Decoding into -2 tells the two
		// apart.
		ev := WatchEvent{Slave: -2}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad watch line %q: %v", line, err)
		}
		if ev.Shard != 0 || ev.Kind == "" {
			t.Fatalf("watch event %+v", ev)
		}
		if unassigned := ev.Kind == "submitted"; ev.Slave == -2 || unassigned != (ev.Slave == -1) {
			t.Fatalf("watch line %q: slave %d for a %s event", line, ev.Slave, ev.Kind)
		}
		slaves[ev.Slave] = true
		kinds[ev.Kind] = true
		if ev.Kind == "completed" {
			break
		}
	}
	for _, want := range []string{"submitted", "sent", "completed"} {
		if !kinds[want] {
			t.Fatalf("watch stream missing %q events (saw %v)", want, kinds)
		}
	}
	// LS sends the first job to the fastest slave, index 0.
	if !slaves[0] {
		t.Fatalf("no watch line carried slave 0 (saw %v)", slaves)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestSLOEndpoint(t *testing.T) {
	s, err := New(Config{
		Platform:   core.NewPlatform([]float64{0.5, 1, 2}, []float64{2, 4, 5}),
		Policy:     "LS",
		ClockScale: 4000,
		SLOs: []obs.Objective{
			{Name: "job-p99", Kind: obs.ObjectiveLatency, ThresholdSeconds: 30, Target: 0.99},
			{Name: "http-avail", Kind: obs.ObjectiveAvailability, Target: 0.999},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestHTTP(t, s)
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 8}, nil); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}
	waitCompleted(t, ts, 8)

	var slo SLOResponse
	if code := getJSON(t, ts.URL+"/v1/slo", &slo); code != http.StatusOK {
		t.Fatalf("GET /v1/slo: %d", code)
	}
	if !slo.Enabled || len(slo.Objectives) != 2 {
		t.Fatalf("slo %+v", slo)
	}
	for _, st := range slo.Objectives {
		// obs.NewSLO's default windows: 5 minutes and 1 hour.
		if len(st.Windows) != 2 || st.Windows[0].WindowSeconds != 300 || st.Windows[1].WindowSeconds != 3600 {
			t.Fatalf("objective %q windows %+v", st.Objective.Name, st.Windows)
		}
		// Nothing is failing: every job is far under 30 wall seconds and
		// no request has 500d.
		if !st.OK {
			t.Fatalf("objective %q not OK: %+v", st.Objective.Name, st)
		}
	}
	// The latency objective has counted the 8 completions; availability
	// has counted the HTTP traffic.
	for _, st := range slo.Objectives {
		if st.Windows[1].Total == 0 {
			t.Fatalf("objective %q saw no events", st.Objective.Name)
		}
		if st.Objective.Kind == obs.ObjectiveLatency && st.Windows[1].Good != 8 {
			t.Fatalf("latency objective counts %+v, want 8 good", st.Windows[1])
		}
	}

	// Burn-rate gauges are on /metrics; the burn report rides /readyz.
	_, body, _ := scrape(t, ts.URL+"/metrics")
	for _, want := range []string{
		`schedd_slo_burn_rate{objective="job-p99",window_seconds="300"}`,
		`schedd_slo_burn_rate{objective="http-avail",window_seconds="3600"}`,
		`schedd_slo_events_total{objective="job-p99"} 8`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, body)
		}
	}
	var ready ReadyResponse
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusOK {
		t.Fatalf("GET /readyz: %d", code)
	}
	if ready.SLO == nil || len(ready.SLO.Objectives) != 2 {
		t.Fatalf("readyz slo %+v", ready.SLO)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestSLODisabledAndInvalid(t *testing.T) {
	_, ts := testServer(t, "LS")
	var slo SLOResponse
	if code := getJSON(t, ts.URL+"/v1/slo", &slo); code != http.StatusOK {
		t.Fatalf("GET /v1/slo: %d", code)
	}
	if slo.Enabled || len(slo.Objectives) != 0 {
		t.Fatalf("slo without objectives %+v", slo)
	}

	base := Config{
		Platform:   core.NewPlatform([]float64{1}, []float64{2}),
		Policy:     "LS",
		ClockScale: 4000,
	}
	bad := base
	bad.SLOs = []obs.Objective{
		{Name: "x", Kind: obs.ObjectiveAvailability, Target: 0.9},
		{Name: "x", Kind: obs.ObjectiveAvailability, Target: 0.99},
	}
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate objective: %v", err)
	}
	bad = base
	bad.SLOs = []obs.Objective{{Name: "x", Kind: "throughput", Target: 0.9}}
	if _, err := New(bad); err == nil {
		t.Fatal("invalid objective accepted")
	}
}

func TestDecisionsLimitParam(t *testing.T) {
	s, ts := shardedServer(t, "least-loaded")
	for i := 0; i < 60; i++ { // one audited decision per submission
		if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{}, nil); code != http.StatusAccepted {
			t.Fatalf("POST /v1/jobs: %d", code)
		}
	}
	// Default is 50 even though more decisions exist.
	var dec DecisionsResponse
	if code := getJSON(t, ts.URL+"/v1/decisions", &dec); code != http.StatusOK || len(dec.Decisions) != decisionsDefaultLimit {
		t.Fatalf("default window: %d decisions (code %d), want %d", len(dec.Decisions), code, decisionsDefaultLimit)
	}
	// ?limit selects the window, newest first; huge limits are capped,
	// not rejected; bad limits are 400s.
	var two DecisionsResponse
	if code := getJSON(t, ts.URL+"/v1/decisions?limit=2", &two); code != http.StatusOK || len(two.Decisions) != 2 {
		t.Fatalf("limit=2: %d %+v", code, two)
	}
	if two.Decisions[0].Seq < two.Decisions[1].Seq {
		t.Fatalf("not newest first: %+v", two.Decisions)
	}
	var capped DecisionsResponse
	if code := getJSON(t, ts.URL+"/v1/decisions?limit=999999", &capped); code != http.StatusOK {
		t.Fatalf("over-cap limit rejected: %d", code)
	}
	for _, bad := range []string{"0", "-3", "many"} {
		if code := getJSON(t, ts.URL+"/v1/decisions?limit="+bad, nil); code != http.StatusBadRequest {
			t.Fatalf("limit=%s: %d", bad, code)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestPerRouteLatencyHistograms(t *testing.T) {
	_, ts := testServer(t, "LS")
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 2}, nil); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}
	getJSON(t, ts.URL+"/v1/stats", nil)
	_, body, _ := scrape(t, ts.URL+"/metrics")
	for _, want := range []string{
		"# TYPE schedd_http_request_duration_seconds histogram",
		`schedd_http_request_duration_seconds_count{route="jobs"} 1`,
		`schedd_http_request_duration_seconds_bucket{route="stats",le="+Inf"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, body)
		}
	}
}
