package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/schedd"
	"repro/pkg/schedclient"
)

// liveDaemon starts a small in-process schedd recording to disk, runs
// 6 jobs through it (draining if asked) and returns the test server's
// URL (still serving its read-only surface) and the recording dir.
func liveDaemon(t *testing.T, drain bool) (string, string) {
	return serveRecorded(t, schedd.Config{
		Platform:   core.NewPlatform([]float64{0.5, 1, 2}, []float64{2, 4, 5}),
		Policy:     "LS",
		ClockScale: 4000,
		SLOs: []obs.Objective{
			{Name: "p99", Kind: obs.ObjectiveLatency, ThresholdSeconds: 30, Target: 0.99},
		},
	}, 6, drain)
}

// serveRecorded serves cfg with its recorder persisting to a fresh dir,
// submits jobs in batches of at most 100 and waits for all of them to
// complete.
func serveRecorded(t *testing.T, cfg schedd.Config, jobs int, drain bool) (string, string) {
	t.Helper()
	dir := t.TempDir()
	cfg.RecordDir = dir
	s, err := schedd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	cli := schedclient.New(ts.URL)
	for left := jobs; left > 0; left -= 100 {
		if _, err := cli.SubmitBatch(min(left, 100)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		stats, err := cli.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Jobs.Completed == jobs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs completed", stats.Jobs.Completed, jobs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if drain {
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
	} else {
		t.Cleanup(func() { _ = s.Drain() })
	}
	return ts.URL, dir
}

func TestRunUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("no args: exit %d", code)
	}
	if code := run([]string{"bogus"}, &out, &errb); code != 1 {
		t.Fatalf("unknown subcommand: exit %d", code)
	}
	if !strings.Contains(errb.String(), "unknown subcommand") {
		t.Fatalf("stderr %q", errb.String())
	}
	if code := run([]string{"export", "-format", "nope", "-dir", t.TempDir()}, &out, &errb); code != 1 {
		t.Fatalf("bad format: exit %d", code)
	}
}

func TestTopAgainstLiveDaemon(t *testing.T) {
	url, _ := liveDaemon(t, false)
	var out, errb bytes.Buffer
	if code := run([]string{"top", "-addr", url}, &out, &errb); code != 0 {
		t.Fatalf("top: exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"policy LS", "completed 6", "shard", "flight:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("top output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestExportFromLiveAndDir(t *testing.T) {
	url, dir := liveDaemon(t, true)

	// Perfetto from the live daemon's GET /flight.
	var live bytes.Buffer
	if code := run([]string{"export", "-addr", url, "-format", "perfetto"}, &live, &live); code != 0 {
		t.Fatalf("export live: exit %d: %s", code, live.String())
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Pid  int            `json:"pid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(live.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output not JSON: %v", err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
			if ev.Dur < 0 || ev.Name == "" {
				t.Fatalf("bad trace event %+v", ev)
			}
		}
	}
	// 6 completed jobs × 4 lifecycle stages.
	if complete != 24 {
		t.Fatalf("%d complete events, want 24", complete)
	}

	// The same export from the on-disk recording is byte-identical.
	outFile := t.TempDir() + "/trace.json"
	var errb bytes.Buffer
	if code := run([]string{"export", "-dir", dir, "-format", "perfetto", "-o", outFile}, &errb, &errb); code != 0 {
		t.Fatalf("export dir: exit %d: %s", code, errb.String())
	}
	onDisk, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), onDisk) {
		t.Fatal("live and on-disk exports differ")
	}

	// Gantt and JSONL formats render from the same recording.
	var gantt bytes.Buffer
	if code := run([]string{"export", "-dir", dir, "-format", "gantt", "-width", "60"}, &gantt, &gantt); code != 0 {
		t.Fatalf("export gantt: exit %d: %s", code, gantt.String())
	}
	if !strings.Contains(gantt.String(), "shard 0 (6 jobs)") || !strings.Contains(gantt.String(), "port") {
		t.Fatalf("gantt output:\n%s", gantt.String())
	}
	var jsonl bytes.Buffer
	if code := run([]string{"export", "-dir", dir, "-format", "jsonl"}, &jsonl, &jsonl); code != 0 {
		t.Fatalf("export jsonl: exit %d: %s", code, jsonl.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(jsonl.String()), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("jsonl line not JSON: %q", line)
		}
	}
}

// TestStealingRecordingEndToEnd drives the operator surface over a
// steal storm: a 3-shard daemon places all 500 jobs on shard 0 and the
// threshold rebalancer spreads them while the recorder persists. top
// and slo read the live daemon; the live Perfetto export and the one
// from the bare segment files are byte-identical, with 4 complete ("X")
// events per job; and tail -n 5 prints the 5 newest events.
func TestStealingRecordingEndToEnd(t *testing.T) {
	const jobs = 500
	url, dir := serveRecorded(t, schedd.Config{
		Platform:         core.NewPlatform([]float64{0.2, 0.4, 0.2, 0.4, 0.2, 0.4}, []float64{1, 2, 1, 2, 1, 2}),
		Policy:           "LS",
		Shards:           3,
		Placement:        "pinned",
		Partition:        core.PartitionStriped,
		Steal:            "threshold",
		StealInterval:    5 * time.Millisecond,
		SnapshotInterval: time.Second,
		ClockScale:       2000,
		SLOs: []obs.Objective{
			{Name: "p99", Kind: obs.ObjectiveLatency, ThresholdSeconds: 30, Target: 0.99},
			{Name: "availability", Kind: obs.ObjectiveAvailability, Target: 0.999},
		},
	}, jobs, true)
	stats, err := schedclient.New(url).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steal == nil || stats.Steal.JobsMoved == 0 || stats.Recorder == nil || stats.Recorder.DiskError != "" {
		t.Fatalf("steal %+v, recorder %+v: want jobs moved and a clean recording", stats.Steal, stats.Recorder)
	}
	for _, args := range [][]string{{"top", "-addr", url}, {"slo", "-addr", url}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%s: exit %d: %s", args[0], code, errb.String())
		}
		if args[0] == "top" && !strings.Contains(out.String(), "completed 500") {
			t.Fatalf("top:\n%s", out.String())
		}
	}
	var live, onDisk, errb bytes.Buffer
	if code := run([]string{"export", "-addr", url, "-format", "perfetto"}, &live, &errb); code != 0 {
		t.Fatalf("export live: exit %d: %s", code, errb.String())
	}
	if code := run([]string{"export", "-dir", dir, "-format", "perfetto"}, &onDisk, &errb); code != 0 {
		t.Fatalf("export dir: exit %d: %s", code, errb.String())
	}
	if !bytes.Equal(live.Bytes(), onDisk.Bytes()) {
		t.Fatal("live and on-disk exports differ")
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(onDisk.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	complete := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete != 4*jobs {
		t.Fatalf("%d complete events, want %d (4 stages × %d jobs)", complete, 4*jobs, jobs)
	}
	var tail bytes.Buffer
	if code := run([]string{"tail", "-dir", dir, "-n", "5"}, &tail, &errb); code != 0 {
		t.Fatalf("tail: exit %d: %s", code, errb.String())
	}
	if n := strings.Count(tail.String(), "\n"); n != 5 {
		t.Fatalf("tail -n 5 printed %d lines:\n%s", n, tail.String())
	}
}

func TestTailFromDir(t *testing.T) {
	_, dir := liveDaemon(t, true)
	var out, errb bytes.Buffer
	if code := run([]string{"tail", "-dir", dir, "-n", "3"}, &out, &errb); code != 0 {
		t.Fatalf("tail: exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3:\n%s", len(lines), out.String())
	}
	for _, line := range lines {
		var ev schedd.WatchEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("tail line %q: %v", line, err)
		}
		if ev.Kind == "" {
			t.Fatalf("tail event %+v", ev)
		}
	}
}

// TestTornRecordingDir: a recording directory whose newest segment was
// cut mid-frame (what kill -9 leaves) still exports and tails — every
// frame up to the last complete one, a warning on stderr, exit 0.
func TestTornRecordingDir(t *testing.T) {
	_, dir := liveDaemon(t, true)
	var whole bytes.Buffer
	if code := run([]string{"export", "-dir", dir, "-format", "jsonl"}, &whole, &whole); code != 0 {
		t.Fatalf("export: exit %d: %s", code, whole.String())
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.flight"))
	newest := segs[len(segs)-1]
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"export", "-dir", dir, "-format", "jsonl"}, &out, &errb); code != 0 {
		t.Fatalf("export on a torn dir: exit %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "warning") || !strings.Contains(errb.String(), filepath.Base(newest)) {
		t.Fatalf("stderr lacks the truncation warning: %q", errb.String())
	}
	// The cut cost the last frame only: one line per frame, so the torn
	// export is the whole one minus its last line.
	lines := strings.SplitAfter(whole.String(), "\n")
	if want := strings.Join(lines[:len(lines)-2], ""); out.String() != want {
		t.Fatalf("torn export:\n%s\nwant the whole export minus its last line:\n%s", out.String(), want)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"tail", "-dir", dir, "-n", "3"}, &out, &errb); code != 0 {
		t.Fatalf("tail on a torn dir: exit %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "warning") || strings.Count(out.String(), "\n") != 3 {
		t.Fatalf("tail: stderr %q, stdout:\n%s", errb.String(), out.String())
	}
}

func TestSLOSubcommand(t *testing.T) {
	url, _ := liveDaemon(t, false)
	var out, errb bytes.Buffer
	if code := run([]string{"slo", "-addr", url}, &out, &errb); code != 0 {
		t.Fatalf("slo: exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"p99", "latency", "ok"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("slo output lacks %q:\n%s", want, out.String())
		}
	}
	// A burning objective flips the exit code — the burn-rate gate.
	breached := renderSLO(&out, schedd.SLOResponse{
		Enabled: true,
		Objectives: []schedd.SLOStatus{{
			Objective: obs.Objective{Name: "x", Kind: obs.ObjectiveAvailability, Target: 0.99},
			OK:        false,
			Windows:   []obs.BurnWindow{{WindowSeconds: 300, Good: 1, Total: 2, ErrorRate: 0.5, BurnRate: 50, OK: false}},
		}},
	})
	if !breached {
		t.Fatal("burning objective not reported as breached")
	}
	if !strings.Contains(out.String(), "BURNING") {
		t.Fatalf("burning row missing:\n%s", out.String())
	}
}

// TestTailLiveStream follows the live /v1/watch stream through the
// client with a bounded -n, so the subcommand exits on its own.
func TestTailLiveStream(t *testing.T) {
	url, _ := liveDaemon(t, false)
	var out, errb bytes.Buffer
	// Events already flowed (liveDaemon waits for 6 completions), but the
	// SSE hub only delivers new ones — submit more after subscribing.
	done := make(chan int, 1)
	go func() { done <- run([]string{"tail", "-addr", url, "-n", "2"}, &out, &errb) }()
	cli := schedclient.New(url)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := cli.SubmitBatch(1); err != nil {
			t.Error(err)
			break
		}
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("tail: exit %d: %s", code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if len(lines) != 2 {
				t.Fatalf("%d lines, want 2:\n%s", len(lines), out.String())
			}
			var ev schedd.WatchEvent
			if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil || ev.Kind == "" {
				t.Fatalf("tail line %q: %v", lines[0], err)
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("tail never delivered 2 events")
		}
	}
}
