package schedclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/schedd"
)

// startServer stands a schedd instance up on a loopback listener and
// returns a client for it plus the in-process server for draining.
func startServer(t *testing.T, cfg schedd.Config) (*Client, *schedd.Server) {
	t.Helper()
	if cfg.Platform.M() == 0 {
		cfg.Platform = core.NewPlatform([]float64{0.1, 0.2, 0.3}, []float64{0.5, 1, 2})
	}
	if cfg.Policy == "" {
		cfg.Policy = "LS"
	}
	srv, err := schedd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return New(ts.URL), srv
}

func TestNewNormalizesAddr(t *testing.T) {
	for in, want := range map[string]string{
		"127.0.0.1:8080":          "http://127.0.0.1:8080",
		"http://example.com/":     "http://example.com",
		"https://example.com:99/": "https://example.com:99",
	} {
		if got := New(in).Addr(); got != want {
			t.Errorf("New(%q).Addr() = %q, want %q", in, got, want)
		}
	}
}

func TestSubmitStatsJobTrace(t *testing.T) {
	cli, srv := startServer(t, schedd.Config{ClockScale: 4000})
	ids, err := cli.SubmitBatch(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 {
		t.Fatalf("SubmitBatch(5) returned %d ids", len(ids))
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	stats, err := cli.Stats() // drained daemon: Stats must tolerate the state
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs.Completed != 5 {
		t.Fatalf("completed %d of 5", stats.Jobs.Completed)
	}
	job, err := cli.Job(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if job.State != "done" {
		t.Fatalf("job %d state %q after drain", ids[0], job.State)
	}
	tr, err := cli.Trace(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Span.Stages) != 4 {
		t.Fatalf("completed trace has %d stages, want 4", len(tr.Span.Stages))
	}
	if _, err := cli.Job(999999); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("Job(unknown) error = %v, want unknown-job message", err)
	}
}

func TestHealthSLODecisions(t *testing.T) {
	cli, srv := startServer(t, schedd.Config{ClockScale: 4000})
	defer srv.Drain()
	h, err := cli.Health()
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Shards != 1 {
		t.Fatalf("health = %+v", h)
	}
	slo, err := cli.SLO()
	if err != nil {
		t.Fatal(err)
	}
	if slo.Enabled {
		t.Fatal("SLO enabled with no objectives configured")
	}
	for i := 0; i < 3; i++ { // one audited decision per submission
		if _, err := cli.SubmitBatch(1); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := cli.Decisions(2)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Enabled || len(ds.Decisions) != 2 {
		t.Fatalf("decisions = enabled %v, %d entries; want enabled, 2", ds.Enabled, len(ds.Decisions))
	}
}

func TestFlightRoundTrips(t *testing.T) {
	cli, srv := startServer(t, schedd.Config{ClockScale: 4000})
	if _, err := cli.SubmitBatch(2); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	raw, err := cli.Flight()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("empty recording after served jobs")
	}
}

func TestFlightDisabled(t *testing.T) {
	cli, srv := startServer(t, schedd.Config{ClockScale: 4000, DisableRecorder: true})
	defer srv.Drain()
	if _, err := cli.Flight(); err == nil || !strings.Contains(err.Error(), "recorder") {
		t.Fatalf("Flight() with recorder off = %v, want recorder hint", err)
	}
}

func TestWatchBoundedSubscription(t *testing.T) {
	cli, srv := startServer(t, schedd.Config{ClockScale: 4000})
	defer srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ws, err := cli.Watch(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if _, err := cli.SubmitBatch(4); err != nil {
		t.Fatal(err)
	}
	// The first event through the typed accessor, the rest as raw lines:
	// the slave field is on every line (slave 0 must not read as absent,
	// and unassigned is an explicit -1).
	if ev, err := ws.NextEvent(); err != nil || ev.Kind == "" {
		t.Fatalf("first event %+v: %v", ev, err)
	}
	for i := 1; i < 3; i++ {
		raw, err := ws.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		var ev schedd.WatchEvent
		if err := json.Unmarshal(raw, &ev); err != nil || ev.Kind == "" {
			t.Fatalf("event %d: %q decodes to %+v (%v)", i, raw, ev, err)
		}
		if !bytes.Contains(raw, []byte(`"slave":`)) || (ev.Kind == "submitted") != (ev.Slave == -1) {
			t.Fatalf("event %d: %q: slave field missing or wrong for a %s event", i, raw, ev.Kind)
		}
	}
	if _, err := ws.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after ?limit=3 events, Next = %v, want io.EOF", err)
	}
}

func TestStreamJobsPipelined(t *testing.T) {
	cli, srv := startServer(t, schedd.Config{
		Platform: core.NewPlatform(
			[]float64{0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.1, 0.2},
			[]float64{0.4, 0.8, 0.4, 0.8, 0.4, 0.8, 0.4, 0.8}),
		Shards:       4,
		Placement:    "least-loaded",
		VirtualClock: true,
	})
	st, err := cli.StreamJobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const lines, perLine = 200, 25
	for i := 0; i < lines; i++ {
		if err := st.Send(schedd.SubmitRequest{Count: perLine}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	sum, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Lines != lines || sum.Jobs != lines*perLine {
		t.Fatalf("summary = %+v, want %d lines / %d jobs", sum, lines, lines*perLine)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	if c := srv.Counts(); c.Completed != lines*perLine {
		t.Fatalf("completed %d of %d", c.Completed, lines*perLine)
	}
}

func TestStreamJobsPartialAccept(t *testing.T) {
	cli, srv := startServer(t, schedd.Config{ClockScale: 4000, MaxBatch: 10})
	st, err := cli.StreamJobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Send(schedd.SubmitRequest{Count: 2}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Over MaxBatch: the service aborts the stream with a terminal ack.
	// Keep sending until the error propagates back through the pipe.
	if err := st.Send(schedd.SubmitRequest{Count: 11}); err == nil {
		deadline := time.Now().Add(10 * time.Second)
		for st.Send(schedd.SubmitRequest{Count: 1}) == nil {
			if time.Now().After(deadline) {
				t.Fatal("terminal ack never surfaced")
			}
			time.Sleep(time.Millisecond)
		}
	}
	sum, err := st.Close()
	if err == nil || !strings.Contains(err.Error(), "outside [1, 10]") {
		t.Fatalf("Close error = %v, want count-bounds message", err)
	}
	if sum.Lines != 3 || sum.Jobs != 6 {
		t.Fatalf("summary = %+v, want the 3 acked lines / 6 jobs", sum)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	if c := srv.Counts(); c.Completed != 6 {
		t.Fatalf("completed %d, want exactly the acked 6 (partial accept)", c.Completed)
	}
}
