package schedd

// Tests for the /v1 API surface: the route-table golden, the shared
// list-limit helper, the one SubmitRequest validator behind both
// submission endpoints, the NDJSON bulk-ingest stream (happy path and
// every error path), and the virtual-clock pure-throughput mode.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestRouteTableGolden pins the service's one route generation: the exact
// set of registered patterns for each configuration that changes it, and
// that the pre-/v1 unversioned API paths are gone (404) while the infra
// probes stay unversioned.
func TestRouteTableGolden(t *testing.T) {
	api := []string{
		"POST /v1/jobs",
		"POST /v1/jobs:stream",
		"GET /v1/jobs/{id}",
		"GET /v1/jobs/{id}/trace",
		"GET /v1/stats",
		"GET /v1/decisions",
		"GET /v1/slo",
		"GET /v1/watch",
		"GET /healthz",
		"GET /readyz",
	}
	flightRoute := []string{"GET /v1/flight"}
	metrics := []string{"GET /metrics", "GET /debug/vars"}
	pprof := []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/profile", "/debug/pprof/symbol", "/debug/pprof/trace"}
	join := func(parts ...[]string) []string {
		var out []string
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := []struct {
		name string
		mod  func(*Config)
		want []string
	}{
		{"default", func(*Config) {}, join(api, flightRoute, metrics)},
		{"recorder off", func(c *Config) { c.DisableRecorder = true }, join(api, metrics)},
		{"metrics off", func(c *Config) { c.DisableMetrics = true }, join(api, flightRoute)},
		{"pprof on", func(c *Config) { c.Pprof = true }, join(api, flightRoute, metrics, pprof)},
	}
	for _, tc := range cases {
		cfg := Config{
			Platform:   core.NewPlatform([]float64{0.2, 0.4}, []float64{1, 2}),
			Policy:     "LS",
			ClockScale: 8000,
		}
		tc.mod(&cfg)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, rt := range s.routes() {
			got = append(got, rt.pattern())
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: registered patterns\n%q\nwant\n%q", tc.name, got, tc.want)
		}
		if tc.name == "default" {
			ts := httptest.NewServer(s.Handler())
			for _, p := range []string{"/jobs", "/jobs/0", "/stats", "/decisions", "/slo", "/watch", "/flight"} {
				if code := getJSON(t, ts.URL+p, nil); code != http.StatusNotFound {
					t.Errorf("GET %s: %d, want 404 (unversioned API paths are gone)", p, code)
				}
			}
			if code := postJSON(t, ts.URL+"/jobs", SubmitRequest{}, nil); code != http.StatusNotFound {
				t.Errorf("POST /jobs: %d, want 404", code)
			}
			for _, p := range []string{"/healthz", "/readyz", "/metrics", "/v1/stats"} {
				if code := getJSON(t, ts.URL+p, nil); code != http.StatusOK {
					t.Errorf("GET %s: %d, want 200", p, code)
				}
			}
			ts.Close()
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryLimit is the table test for the shared list-limit helper:
// default, cap and garbage handling must be uniform across every list
// endpoint that uses it.
func TestQueryLimit(t *testing.T) {
	cases := []struct {
		query   string
		want    int
		wantErr string
	}{
		{"", 50, ""},                 // absent: default
		{"limit=7", 7, ""},           // plain
		{"limit=1000", 1000, ""},     // at the cap
		{"limit=5000", 1000, ""},     // above the cap: silently capped
		{"n=9", 50, ""},              // the retired ?n= alias is just an unknown parameter
		{"limit=0", 0, "bad limit"},  // zero is not a positive integer
		{"limit=-3", 0, "bad limit"}, // negative
		{"limit=abc", 0, "bad limit"},
	}
	for _, tc := range cases {
		r := httptest.NewRequest("GET", "/v1/decisions?"+tc.query, nil)
		got, err := queryLimit(r, 50, 1000)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("query %q: err %v, want %q", tc.query, err, tc.wantErr)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Fatalf("query %q: got %d, %v; want %d", tc.query, got, err, tc.want)
		}
	}
}

// TestListLimitEndpoints pins the helper's wiring: /v1/decisions and
// /v1/watch reject garbage limits the same way.
func TestListLimitEndpoints(t *testing.T) {
	s, ts := testServer(t, "LS")
	defer func() {
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 4; i++ {
		if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{}, nil); code != http.StatusAccepted {
			t.Fatalf("POST /v1/jobs: %d", code)
		}
	}
	waitCompleted(t, ts, 4)
	for _, p := range []string{"/v1/decisions?limit=0", "/v1/decisions?limit=oops", "/v1/watch?limit=-1", "/v1/watch?limit=x"} {
		if code := getJSON(t, ts.URL+p, nil); code != http.StatusBadRequest {
			t.Fatalf("GET %s: %d, want 400", p, code)
		}
	}
	var dec DecisionsResponse
	if code := getJSON(t, ts.URL+"/v1/decisions?limit=2", &dec); code != http.StatusOK || len(dec.Decisions) != 2 {
		t.Fatalf("GET /v1/decisions?limit=2: %d, %d decisions", code, len(dec.Decisions))
	}
}

// TestSubmitValidationShared drives the same bad requests through both
// submission endpoints: POST /v1/jobs answers 400, POST /v1/jobs:stream
// answers a terminal ack on the bad line while the line before it stays
// accepted — with the same message, because one validator serves both.
func TestSubmitValidationShared(t *testing.T) {
	cases := []struct {
		name, req, wantErr string
	}{
		{"malformed json", `{not json`, "bad request"},
		{"negative count", `{"count":-1}`, "outside [1, 10000]"},
		{"oversized count", `{"count":10001}`, "outside [1, 10000]"},
		{"negative comm scale", `{"comm_scale":-0.5}`, "scales must be"},
		{"negative comp scale", `{"comp_scale":-2}`, "scales must be"},
		{"comm scale above maxScale", `{"comm_scale":1000001}`, "scales must be"},
		{"comp scale overflowing to +Inf completions", `{"count":2,"comp_scale":1e308}`, "scales must be"},
		{"scale beyond float64", `{"comp_scale":1e999}`, "bad request"},
	}
	// A virtual-clock service: the legal extreme of a scale is a job
	// maxScale times longer, which only model time can serve promptly.
	s, ts := virtualServer(t, 2)
	accepted := 0
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.req))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.wantErr) {
			t.Errorf("%s: POST /v1/jobs: %d %s, want 400 naming %q", tc.name, resp.StatusCode, body, tc.wantErr)
		}
		acks := streamLines(t, ts, "{\"count\":2}\n"+tc.req+"\n{\"count\":7}\n")
		if len(acks) != 2 || acks[0].Error != "" || acks[0].Count != 2 {
			t.Fatalf("%s: stream acks %+v, want one accepted line then a terminal ack", tc.name, acks)
		}
		accepted += 2
		if acks[1].Line != 2 || !strings.Contains(acks[1].Error, tc.wantErr) || !strings.Contains(acks[1].Error, "remain accepted") {
			t.Errorf("%s: terminal ack %+v, want line 2 naming %q", tc.name, acks[1], tc.wantErr)
		}
	}
	// The largest legal scale is accepted by both.
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{CommScale: maxScale, CompScale: 0}, nil); code != http.StatusAccepted {
		t.Errorf("POST /v1/jobs at maxScale: %d", code)
	}
	accepted++

	// A body over the one-request size bound is refused before decoding.
	big := `{"count":1,"pad":"` + strings.Repeat("x", streamMaxLine) + `"}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /v1/jobs with a %d-byte body: %d, want 400", len(big), resp.StatusCode)
	}

	// An empty body is the documented one nominal job — also when it
	// arrives chunked, with no Content-Length to announce the emptiness.
	for _, body := range []io.Reader{http.NoBody, struct{ io.Reader }{strings.NewReader("")}} {
		var out SubmitResponse
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || err != nil || len(out.IDs) != 1 {
			t.Errorf("POST /v1/jobs with an empty body (%T): %d, ids %v, err %v; want one nominal job", body, resp.StatusCode, out.IDs, err)
		}
		accepted++
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if c := s.Counts(); c.Submitted != accepted || c.Completed != accepted {
		t.Fatalf("counts %+v, want exactly the %d accepted jobs served", c, accepted)
	}
}

// TestWatchLimit pins ?limit= on the SSE stream: the subscription ends
// by itself after exactly N events — a bounded tail, no client-side cut.
func TestWatchLimit(t *testing.T) {
	s, ts := testServer(t, "LS")
	type result struct {
		lines int
		err   error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/watch?limit=3")
		if err != nil {
			done <- result{0, err}
			return
		}
		defer resp.Body.Close()
		lines := 0
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "data: ") {
				lines++
			}
		}
		done <- result{lines, sc.Err()}
	}()
	// Submit only after the watcher is subscribed, so at least 3 events
	// are guaranteed to flow past it.
	deadline := time.Now().Add(5 * time.Second)
	for s.watch.subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 8}, nil); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}
	res := <-done
	if res.err != nil || res.lines != 3 {
		t.Fatalf("watch limit: %d lines, err %v; want exactly 3", res.lines, res.err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// virtualServer builds a pure-throughput (virtual-clock) service.
func virtualServer(t *testing.T, shards int) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Platform: core.NewPlatform(
			[]float64{0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.1, 0.2},
			[]float64{0.4, 0.8, 0.4, 0.8, 0.4, 0.8, 0.4, 0.8}),
		Policy:           "LS",
		Shards:           shards,
		Placement:        "least-loaded",
		VirtualClock:     true,
		IngestQueueDepth: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// streamLines POSTs raw NDJSON to /v1/jobs:stream and decodes every ack.
func streamLines(t *testing.T, ts *httptest.Server, body string) []StreamAck {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs:stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/jobs:stream: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var acks []StreamAck
	dec := json.NewDecoder(resp.Body)
	for {
		var a StreamAck
		if err := dec.Decode(&a); err == io.EOF {
			return acks
		} else if err != nil {
			t.Fatalf("decoding ack: %v", err)
		}
		acks = append(acks, a)
	}
}

// TestStreamEndToEnd drives the bulk path on a virtual-clock service:
// NDJSON in, consecutive ID ranges out, everything completes on drain.
func TestStreamEndToEnd(t *testing.T) {
	s, ts := virtualServer(t, 4)
	var body strings.Builder
	const lines, per = 10, 100
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&body, "{\"count\":%d}\n", per)
	}
	acks := streamLines(t, ts, body.String())
	if len(acks) != lines {
		t.Fatalf("%d acks for %d lines", len(acks), lines)
	}
	next := 0
	for i, a := range acks {
		if a.Error != "" {
			t.Fatalf("ack %d error %q", i, a.Error)
		}
		if a.Line != i+1 || a.Base != next || a.Count != per {
			t.Fatalf("ack %d: %+v (want line %d base %d count %d)", i, a, i+1, next, per)
		}
		next += per
	}
	// The batch endpoint coexists with the stream on the virtual clock.
	var batch SubmitResponse
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 5}, &batch); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}
	if len(batch.IDs) != 5 || batch.IDs[0] != lines*per {
		t.Fatalf("batch ids %v", batch.IDs)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", code)
	}
	want := lines*per + 5
	if stats.Jobs.Submitted != want || stats.Jobs.Completed != want {
		t.Fatalf("jobs %+v, want %d", stats.Jobs, want)
	}
	if stats.ClockScale != 1 {
		t.Fatalf("virtual mode clock scale %v, want forced 1", stats.ClockScale)
	}
	// Streaming into a drained service gets a terminal draining ack.
	acks = streamLines(t, ts, "{\"count\":1}\n")
	if len(acks) != 1 || acks[0].Error == "" || !strings.Contains(acks[0].Error, "draining") {
		t.Fatalf("drained stream acks %+v", acks)
	}
}

// TestStatsTraceMatchesDrainedSchedule is the served-vs-drained oracle:
// what GET /v1/stats reports from the live trackers equals, field for
// field, the analysis of what each shard's master actually executed. After
// the drain every shard section's trace is trace.Analyze of that shard's
// own schedule (rebased to its first submission, slaves relabelled to
// global indices) and the merged trace is trace.MergeReports of those.
func TestStatsTraceMatchesDrainedSchedule(t *testing.T) {
	s, ts := virtualServer(t, 4)
	var body strings.Builder
	const jobs = 600
	for i := 0; i < jobs; i++ {
		fmt.Fprintf(&body, "{\"comm_scale\":%.2f,\"comp_scale\":%.2f}\n", 0.9+float64(i%5)*0.05, 0.9+float64(i%7)*0.03)
	}
	if acks := streamLines(t, ts, body.String()); len(acks) != jobs {
		t.Fatalf("%d acks for %d one-job lines", len(acks), jobs)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	var served StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &served); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", code)
	}
	shards := s.Router().Shards()
	if len(served.PerShard) != len(shards) || served.Jobs.Completed != jobs {
		t.Fatalf("served %d shard sections, %d completed", len(served.PerShard), served.Jobs.Completed)
	}
	var parts []trace.Report
	for i, sh := range shards {
		sch := sh.Result().Schedule
		first, _, _ := sh.Tracker().Span()
		recs := append([]core.Record(nil), sch.Records...)
		for k := range recs {
			recs[k].Release -= first
			recs[k].SendStart -= first
			recs[k].Arrive -= first
			recs[k].Start -= first
			recs[k].Complete -= first
		}
		want := trace.Analyze(core.Schedule{Instance: sch.Instance, Records: recs})
		for k := range want.Slaves {
			want.Slaves[k].Slave = sh.GlobalSlave(want.Slaves[k].Slave)
		}
		got := served.PerShard[i].Trace
		if got == nil || len(recs) == 0 {
			t.Fatalf("shard %d: %d drained records, served trace %v", i, len(recs), got)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("shard %d: served trace differs from the drained schedule's\nserved  %+v\ndrained %+v", i, *got, want)
		}
		parts = append(parts, want)
	}
	if want := trace.MergeReports(parts...); served.Trace == nil || !reflect.DeepEqual(*served.Trace, want) {
		t.Fatalf("merged trace differs\nserved %+v\nmerged %+v", served.Trace, want)
	}
}

// TestStreamRealClock pins the stream on a real clock: batches go
// through the same intake as on the virtual clock and the acks carry
// the same consecutive-range contract.
func TestStreamRealClock(t *testing.T) {
	s, ts := testServer(t, "LS")
	acks := streamLines(t, ts, "{\"count\":4}\n{}\n{\"count\":2,\"comp_scale\":2}\n")
	if len(acks) != 3 {
		t.Fatalf("%d acks", len(acks))
	}
	wantCounts := []int{4, 1, 2}
	next := 0
	for i, a := range acks {
		if a.Error != "" || a.Base != next || a.Count != wantCounts[i] {
			t.Fatalf("ack %d: %+v (want base %d count %d)", i, a, next, wantCounts[i])
		}
		next += wantCounts[i]
	}
	waitCompleted(t, ts, next)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamMalformedLine pins partial-accept on a mid-stream protocol
// error: the first line is accepted and served, the bad second line gets
// a terminal error ack naming the line, and the third line is never read.
func TestStreamMalformedLine(t *testing.T) {
	s, ts := virtualServer(t, 2)
	acks := streamLines(t, ts, "{\"count\":3}\n{not json\n{\"count\":5}\n")
	if len(acks) != 2 {
		t.Fatalf("%d acks, want 2 (one good, one terminal error)", len(acks))
	}
	if acks[0].Error != "" || acks[0].Count != 3 {
		t.Fatalf("first ack %+v", acks[0])
	}
	if acks[1].Line != 2 || !strings.Contains(acks[1].Error, "bad request line") ||
		!strings.Contains(acks[1].Error, "remain accepted") {
		t.Fatalf("error ack %+v", acks[1])
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if c := s.Counts(); c.Submitted != 3 || c.Completed != 3 {
		t.Fatalf("counts %+v, want the 3 accepted jobs served", c)
	}
}

// TestStreamOversizedBatch pins the bounds check: a line whose count
// exceeds MaxBatch is rejected with a terminal ack documenting the
// partial-accept semantics, and earlier lines stay accepted.
func TestStreamOversizedBatch(t *testing.T) {
	s, ts := virtualServer(t, 2)
	acks := streamLines(t, ts, "{\"count\":2}\n{\"count\":20000}\n")
	if len(acks) != 2 {
		t.Fatalf("%d acks", len(acks))
	}
	if acks[1].Line != 2 || !strings.Contains(acks[1].Error, "outside [1, 10000]") ||
		!strings.Contains(acks[1].Error, "remain accepted") {
		t.Fatalf("error ack %+v", acks[1])
	}
	acks = streamLines(t, ts, "{\"count\":1,\"comm_scale\":-1}\n")
	if len(acks) != 1 || !strings.Contains(acks[0].Error, "non-negative") {
		t.Fatalf("negative-scale ack %+v", acks)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if c := s.Counts(); c.Submitted != 2 || c.Completed != 2 {
		t.Fatalf("counts %+v, want the 2 accepted jobs served", c)
	}
}

// TestStreamClientDisconnect pins the half-stream case: a client that
// dies mid-stream keeps every acked line (the jobs are already admitted)
// and loses nothing else — the service drains to exactly the acked
// population. The request runs over a raw connection with hand-rolled
// chunked encoding: net/http's client buffers small request-body writes,
// so only a raw conn can interleave "send a line, read its ack" and then
// die without sending the terminal chunk.
func TestStreamClientDisconnect(t *testing.T) {
	s, ts := virtualServer(t, 2)
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST /v1/jobs:stream HTTP/1.1\r\nHost: %s\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n", u.Host); err != nil {
		t.Fatal(err)
	}
	chunk := func(line string) {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "%x\r\n%s\r\n", len(line), line); err != nil {
			t.Fatal(err)
		}
	}
	chunk("{\"count\":3}\n")
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	var a1, a2 StreamAck
	if err := dec.Decode(&a1); err != nil || a1.Error != "" || a1.Count != 3 {
		t.Fatalf("ack 1 %+v err %v", a1, err)
	}
	chunk("{\"count\":3}\n")
	if err := dec.Decode(&a2); err != nil || a2.Error != "" || a2.Count != 3 {
		t.Fatalf("ack 2 %+v err %v", a2, err)
	}
	// Die mid-request: close without the terminal 0-length chunk.
	conn.Close()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if c := s.Counts(); c.Submitted != 6 || c.Completed != 6 {
		t.Fatalf("counts %+v, want exactly the 6 acked jobs", c)
	}
}

// TestVirtualClockConfig pins the mode's validation: stealing is
// structurally incompatible with firehose admission.
func TestVirtualClockConfig(t *testing.T) {
	pl := core.NewPlatform([]float64{0.2, 0.4}, []float64{1, 2})
	if _, err := New(Config{Platform: pl, Policy: "LS", Shards: 2, VirtualClock: true, Steal: "threshold"}); err == nil {
		t.Fatal("virtual clock with stealing accepted")
	}
}

// TestQueueDepthCountsIntakeBacklog pins the one definition of a shard's
// queue depth: the jobs its runtime holds undispatched plus those still
// in its intake queue, on every surface that reports it. A virtual-clock
// service takes a burst larger than the admit window, so each shard's
// drain leaves a backlog in the intake; the test then freezes every
// shard — a watcher whose hub lock the test holds stalls each master at
// its first event, and with it the shard's whole virtual world — and
// reads /healthz, /readyz, /v1/stats and /metrics against
// Router.Pending and the per-shard counters.
func TestQueueDepthCountsIntakeBacklog(t *testing.T) {
	s, ts := virtualServer(t, 4)
	id, _ := s.watch.subscribe()
	s.watch.mu.Lock()
	const jobs = 8000
	if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: jobs}, nil); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}
	router := s.Router()
	// A shard is frozen once its tracker has seen an event: the master is
	// then inside the observer, blocked on the hub lock, and holds its
	// virtual world's only baton.
	deadline := time.Now().Add(10 * time.Second)
	for _, sh := range router.Shards() {
		for sh.Tracker().CountsSnapshot().Submitted == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d never admitted a job", sh.Index())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if router.FirehoseDepth() == 0 {
		t.Fatal("the admit window left no backlog in the intake")
	}

	queued := router.FirehoseStats().ShardQueued
	want := make([]int, len(queued))
	total := 0
	for i, sh := range router.Shards() {
		want[i] = sh.Load().QueueDepth() + int(queued[i])
		total += want[i]
	}
	if total != router.Pending() {
		t.Fatalf("Router.Pending() = %d, per-shard shares sum to %d", router.Pending(), total)
	}
	var health HealthResponse
	getJSON(t, ts.URL+"/healthz", &health)
	var ready ReadyResponse
	getJSON(t, ts.URL+"/readyz", &ready)
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	metrics := scrapeMetrics(t, ts)
	if health.QueueDepth != total {
		t.Fatalf("/healthz queue_depth %d, want Router.Pending() %d", health.QueueDepth, total)
	}
	for i, w := range want {
		if health.ShardQueueDepths[i] != w || ready.Shards[i].QueueDepth != w || stats.PerShard[i].QueueDepth != w {
			t.Fatalf("shard %d: /healthz %d, /readyz %d, /v1/stats %d; want %d (intake %d)",
				i, health.ShardQueueDepths[i], ready.Shards[i].QueueDepth, stats.PerShard[i].QueueDepth, w, queued[i])
		}
		if got := metrics[fmt.Sprintf(`schedd_queue_depth{shard="%d"}`, i)]; got != float64(w) {
			t.Fatalf("shard %d: schedd_queue_depth %v, want %d", i, got, w)
		}
	}

	s.watch.mu.Unlock()
	s.watch.unsubscribe(id)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if c := s.Counts(); c.Completed != jobs {
		t.Fatalf("counts %+v, want %d completed", c, jobs)
	}
}

// scrapeMetrics reads GET /metrics into sample name (labels included) →
// value.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] = v
		}
	}
	return out
}
