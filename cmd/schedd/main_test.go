package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRunServesAndDrainsOnSignal drives the daemon the way an operator
// does: flags in, HTTP traffic, SIGTERM, graceful drain. The service
// itself has its own end-to-end tests (internal/schedd); what only this
// one pins is that every flag reaches the service it configures and
// that a signal drains every accepted job before run returns.
func TestRunServesAndDrainsOnSignal(t *testing.T) {
	logs, logw := io.Pipe()
	records := make(chan map[string]any, 64)
	go func() {
		defer close(records)
		sc := bufio.NewScanner(logs)
		for sc.Scan() {
			var rec map[string]any
			if json.Unmarshal(sc.Bytes(), &rec) == nil {
				records <- rec
			}
		}
	}()
	next := func(msg string) map[string]any {
		t.Helper()
		timeout := time.After(10 * time.Second)
		for {
			select {
			case rec, ok := <-records:
				if !ok {
					t.Fatalf("log ended before %q", msg)
				}
				if rec["msg"] == msg {
					return rec
				}
			case <-timeout:
				t.Fatalf("no %q log record", msg)
			}
		}
	}

	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0", "-log-format", "json", "-policy", "LS",
			"-slaves", "0.2:1,0.4:2,0.2:1,0.4:2,0.2:1,0.4:2",
			"-shards", "3", "-placement", "least-loaded", "-partition", "balanced",
			"-clock-scale", "4000", "-ingest-queue", "64", "-max-batch", "500",
		}, logw, stop)
		logw.Close()
	}()
	base := next("serving")["addr"].(string)

	var stats struct {
		Slaves     int     `json:"slaves"`
		Shards     int     `json:"shards"`
		Placement  string  `json:"placement"`
		Partition  string  `json:"partition"`
		ClockScale float64 `json:"clock_scale"`
		Firehose   struct {
			QueueBound int `json:"queue_bound"`
		} `json:"firehose"`
	}
	getJSON(t, base+"/v1/stats", &stats)
	if stats.Slaves != 6 || stats.Shards != 3 || stats.Placement != "least-loaded" ||
		stats.Partition != "balanced" || stats.ClockScale != 4000 || stats.Firehose.QueueBound != 64 {
		t.Fatalf("flags did not reach the service: %+v", stats)
	}
	const jobs = 300
	for i := 0; i < jobs/100; i++ {
		if n := postJobs(t, base, 100); n != http.StatusAccepted {
			t.Fatalf("POST /v1/jobs: status %d", n)
		}
	}
	if n := postJobs(t, base, 501); n != http.StatusBadRequest {
		t.Fatalf("a count past -max-batch: status %d, want 400", n)
	}

	stop <- syscall.SIGTERM
	if rec := next("draining"); rec["signal"] != syscall.SIGTERM.String() {
		t.Fatalf("draining record %v", rec)
	}
	if rec := next("drained"); rec["submitted"] != float64(jobs) || rec["completed"] != float64(jobs) {
		t.Fatalf("drained record %v, want %d submitted and completed", rec, jobs)
	}
	next("bye")
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after the drain")
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// postJobs submits count nominal jobs and returns the response status.
func postJobs(t *testing.T, base string, count int) int {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(fmt.Sprintf(`{"count":%d}`, count)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRunRejectsBadFlags pins that configuration errors end run with an
// error rather than a served daemon.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-slaves", "Inf:2"},
		{"-policy", "FIFO"},
		{"-virtual", "-steal", "threshold", "-slaves", "1:1,1:1", "-shards", "2"},
		{"-no-such-flag"},
	} {
		if err := run(args, io.Discard, nil); err == nil {
			t.Fatalf("run(%q) succeeded", args)
		}
	}
}

func TestParseSLOs(t *testing.T) {
	// Empty means no objectives, not an error.
	if slos, err := parseSLOs("  "); err != nil || slos != nil {
		t.Fatalf("empty -slo: %v %v", slos, err)
	}
	slos, err := parseSLOs("p99=latency:0.5:0.99, availability:0.999")
	if err != nil {
		t.Fatal(err)
	}
	if len(slos) != 2 {
		t.Fatalf("parsed %d objectives", len(slos))
	}
	if slos[0].Name != "p99" || slos[0].Kind != obs.ObjectiveLatency ||
		slos[0].ThresholdSeconds != 0.5 || slos[0].Target != 0.99 {
		t.Fatalf("latency objective %+v", slos[0])
	}
	// Unnamed objectives default to kind (index-suffixed past the first).
	if slos[1].Name != "availability-1" || slos[1].Kind != obs.ObjectiveAvailability || slos[1].Target != 0.999 {
		t.Fatalf("availability objective %+v", slos[1])
	}
	for _, bad := range []string{
		"latency:0.5",             // missing target
		"availability:0.5:0.9",    // extra field
		"latency:zap:0.9",         // bad threshold
		"availability:high",       // bad target
		"throughput:0.9",          // unknown kind
		"availability:1.5",        // target outside (0,1)
		"p=latency:-1:0.9",        // non-positive threshold
		"latency:0.5:0.99,,x:0.9", // empty entry then junk
		"latency:NaN:0.9",         // NaN compares false with everything
		"availability:NaN",
		"a=availability:0.9,a=latency:1:0.9",       // duplicate explicit name
		"latency-1=availability:0.9,latency:1:0.9", // default name collides
	} {
		if _, err := parseSLOs(bad); err == nil {
			t.Fatalf("-slo %q accepted", bad)
		}
	}
	// Errors name the entry.
	if _, err := parseSLOs("ok=availability:0.9,bad=latency:0.5"); err == nil || !strings.Contains(err.Error(), "entry 1") {
		t.Fatalf("error does not name the entry: %v", err)
	}
}

func TestParseSlaves(t *testing.T) {
	pl, err := parseSlaves("0.5:2, 1:4 ,2:5")
	if err != nil {
		t.Fatal(err)
	}
	if pl.M() != 3 || pl.C[0] != 0.5 || pl.P[1] != 4 || pl.C[2] != 2 || pl.P[2] != 5 {
		t.Fatalf("parsed %v", pl)
	}
}

func TestParseSlavesErrorsNameTokenAndIndex(t *testing.T) {
	cases := []struct {
		in   string
		want []string // substrings the error must contain
	}{
		{"0.5:2,13,2:5", []string{"entry 1", `"13"`, "c:p"}},
		{"0.5:2,x:4", []string{"entry 1", `"x:4"`, "communication"}},
		{"0.5:2,1:zap", []string{"entry 1", `"1:zap"`, "computation"}},
		{"1:1,-2:3", []string{"entry 1", `"-2:3"`, "positive"}},
		{"1:1,2:0", []string{"entry 1", `"2:0"`, "positive"}},
		{"NaN:1", []string{"entry 0", `"NaN:1"`, "finite"}},
		{"1:NaN", []string{"entry 0", `"1:NaN"`, "finite"}},
		{"Inf:1", []string{"entry 0", `"Inf:1"`, "finite"}},
		{"2:3,1:+Inf", []string{"entry 1", `"1:+Inf"`, "finite"}},
		{"", []string{"entry 0", "c:p"}},
		{"1:2,", []string{"entry 1", "c:p"}},
	}
	for _, tc := range cases {
		_, err := parseSlaves(tc.in)
		if err == nil {
			t.Fatalf("parseSlaves(%q) accepted", tc.in)
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("parseSlaves(%q) error %q lacks %q", tc.in, err, want)
			}
		}
	}
}

func TestBuildLogger(t *testing.T) {
	for _, level := range []string{"debug", "info", "warn", "error"} {
		for _, format := range []string{"text", "json"} {
			if _, err := buildLogger(os.Stderr, level, format); err != nil {
				t.Fatalf("buildLogger(%q, %q): %v", level, format, err)
			}
		}
	}
	// Errors name the offending flag and value.
	if _, err := buildLogger(os.Stderr, "loud", "text"); err == nil ||
		!strings.Contains(err.Error(), "-log-level") || !strings.Contains(err.Error(), `"loud"`) {
		t.Fatalf("bad level error = %v", err)
	}
	if _, err := buildLogger(os.Stderr, "info", "xml"); err == nil ||
		!strings.Contains(err.Error(), "-log-format") || !strings.Contains(err.Error(), `"xml"`) {
		t.Fatalf("bad format error = %v", err)
	}
}

func TestBuildPlatform(t *testing.T) {
	// Explicit -slaves overrides -class.
	pl, err := buildPlatform("1:2,3:4", "homogeneous", 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pl.M() != 2 {
		t.Fatalf("explicit platform %v", pl)
	}
	// Random platforms honor class and m, and are seed-deterministic.
	a, err := buildPlatform("", "comp-homogeneous", 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildPlatform("", "comp-homogeneous", 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.M() != 4 || a.String() != b.String() {
		t.Fatalf("random platform not deterministic: %v vs %v", a, b)
	}
	if _, err := buildPlatform("", "hyper-homogeneous", 4, 7); err == nil {
		t.Fatal("unknown class accepted")
	}
}

// TestServerClosesUnfinishedHeader pins the daemon's connection timeouts:
// a client that never finishes its request header is disconnected, while
// nothing bounds a request body or a response (jobs:stream and /v1/watch
// are long-lived). The header timeout is shortened on the built server
// so the test does not wait out the production ten seconds.
func TestServerClosesUnfinishedHeader(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("server timeouts = header %v idle %v, want %v and %v",
			srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("server bounds whole requests (read %v, write %v): streams must stay open", srv.ReadTimeout, srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/jobs HTTP/1.1\r\nHost: x\r\nX-Never-Finished: ")); err != nil {
		t.Fatal(err)
	}
	// The server answers the stalled header with at most an error
	// response and then closes: the read must reach EOF, not the deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection with an unfinished header was not closed: %v", err)
	}
}

// FuzzParseSlaves: no -slaves string may panic the parser, and whatever
// it accepts is a platform a master can serve — the one validator agrees
// and every cost is finite and positive.
func FuzzParseSlaves(f *testing.F) {
	f.Add("0.5:2, 1:4 ,2:5")
	f.Fuzz(func(t *testing.T, s string) {
		pl, err := parseSlaves(s)
		if err != nil {
			return
		}
		if err := pl.Validate(); err != nil {
			t.Fatalf("parseSlaves(%q) accepted an invalid platform: %v", s, err)
		}
		for _, x := range append(append([]float64(nil), pl.C...), pl.P...) {
			if !(x > 0) || math.IsInf(x, 0) {
				t.Fatalf("parseSlaves(%q) accepted cost %v", s, x)
			}
		}
	})
}

// FuzzParseSLOs: no -slo string may panic the parser, and whatever it
// accepts is a list of valid objectives with unique names and targets
// strictly inside (0, 1).
func FuzzParseSLOs(f *testing.F) {
	f.Add("p99=latency:0.5:0.99, availability:0.999")
	f.Fuzz(func(t *testing.T, s string) {
		slos, err := parseSLOs(s)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, o := range slos {
			if err := o.Validate(); err != nil {
				t.Fatalf("parseSLOs(%q) accepted an invalid objective: %v", s, err)
			}
			if !(o.Target > 0 && o.Target < 1) || (o.Kind == obs.ObjectiveLatency && !(o.ThresholdSeconds > 0)) {
				t.Fatalf("parseSLOs(%q) accepted %+v", s, o)
			}
			if seen[o.Name] {
				t.Fatalf("parseSLOs(%q) accepted duplicate name %q", s, o.Name)
			}
			seen[o.Name] = true
		}
	})
}
