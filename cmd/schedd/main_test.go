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
	"regexp"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// daemon is the command's run in a goroutine, driven the way an
// operator drives it: flags in, HTTP traffic against the address it
// logs, a signal to stop.
type daemon struct {
	t       *testing.T
	base    string
	stop    chan os.Signal
	done    chan error
	records chan map[string]any
}

// startDaemon runs the daemon on a free port with JSON logs plus args,
// and returns once it logs that it is serving.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{t: t, stop: make(chan os.Signal, 1), done: make(chan error, 1), records: make(chan map[string]any, 64)}
	logs, logw := io.Pipe()
	go func() {
		defer close(d.records)
		sc := bufio.NewScanner(logs)
		for sc.Scan() {
			var rec map[string]any
			if json.Unmarshal(sc.Bytes(), &rec) == nil {
				d.records <- rec
			}
		}
	}()
	go func() {
		d.done <- run(append([]string{"-addr", "127.0.0.1:0", "-log-format", "json"}, args...), logw, d.stop)
		logw.Close()
	}()
	d.base = d.next("serving")["addr"].(string)
	return d
}

// next returns the next log record with message msg.
func (d *daemon) next(msg string) map[string]any {
	d.t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case rec, ok := <-d.records:
			if !ok {
				d.t.Fatalf("log ended before %q", msg)
			}
			if rec["msg"] == msg {
				return rec
			}
		case <-timeout:
			d.t.Fatalf("no %q log record", msg)
		}
	}
}

// wait returns run's result once it has logged its last record.
func (d *daemon) wait() error {
	d.t.Helper()
	d.next("bye")
	select {
	case err := <-d.done:
		return err
	case <-time.After(10 * time.Second):
		d.t.Fatal("run did not return after the drain")
		return nil
	}
}

// TestRunServesAndDrainsOnSignal drives the daemon the way an operator
// does: flags in, HTTP traffic, SIGTERM, graceful drain. The service
// itself has its own end-to-end tests (internal/schedd); what only this
// one pins is that every flag reaches the service it configures and
// that a signal drains every accepted job before run returns.
func TestRunServesAndDrainsOnSignal(t *testing.T) {
	d := startDaemon(t, "-policy", "LS",
		"-slaves", "0.2:1,0.4:2,0.2:1,0.4:2,0.2:1,0.4:2",
		"-shards", "3", "-placement", "least-loaded", "-partition", "balanced",
		"-clock-scale", "4000", "-ingest-queue", "64", "-max-batch", "500")
	base := d.base

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

	d.stop <- syscall.SIGTERM
	if rec := d.next("draining"); rec["signal"] != syscall.SIGTERM.String() {
		t.Fatalf("draining record %v", rec)
	}
	if rec := d.next("drained"); rec["submitted"] != float64(jobs) || rec["completed"] != float64(jobs) {
		t.Fatalf("drained record %v, want %d submitted and completed", rec, jobs)
	}
	if err := d.wait(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestMutexProfileSparesReadPath pins the router's lock-free read path
// against the daemon itself: with every contention event sampled
// (-pprof -mutexprofile 1), four concurrent jobs:stream ingests racing
// two GET /v1/jobs/{id} readers leave not one mutex or block sample
// with Router.Job or Router.ShardOf anywhere on its stack — a lock in
// the job index they read through shows up as such a sample. The one
// exemption is the lock Tracker.Job takes itself: the job's state comes
// from its shard's live.Tracker, behind that tracker's own read lock
// (released through a compiler-made deferwrap1 frame where the defer is
// not open-coded, as under -race). A canary contention of the test's
// own must show up in both profiles, so an empty or unwired profile
// cannot pass, on any number of CPUs.
func TestMutexProfileSparesReadPath(t *testing.T) {
	t.Cleanup(func() { runtime.SetMutexProfileFraction(0); runtime.SetBlockProfileRate(0) })
	d := startDaemon(t, "-policy", "LS",
		"-slaves", "0.1:0.4,0.1:0.8,0.2:0.4,0.2:0.8,0.3:0.4,0.3:0.8,0.1:0.4,0.2:0.8",
		"-shards", "4", "-placement", "least-loaded", "-partition", "balanced",
		"-virtual", "-record=false", "-pprof", "-mutexprofile", "1",
		// Zero is legal wherever the help text gives it a meaning.
		"-ingest-queue", "0", "-audit-depth", "0", "-record-segments", "0", "-record-segment-bytes", "0")
	body := strings.Repeat(`{"count":500}`+"\n", 50)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(d.base+"/v1/jobs:stream", "application/x-ndjson", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 500; i++ {
				if resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", d.base, i*37)); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	// The canary: this goroutine blocks on a lock another one releases
	// 50 ms later (long enough that the Lock below is waiting by then).
	var canary sync.Mutex
	canary.Lock()
	go func() { time.Sleep(50 * time.Millisecond); canary.Unlock() }()
	canary.Lock()
	canary.Unlock()
	readPath := regexp.MustCompile(`cluster\.\(\*Router\)\.(Job|ShardOf)\b`)
	const trackerJob = "repro/internal/live.(*Tracker).Job"
	for _, profile := range []string{"mutex", "block"} {
		resp, err := http.Get(d.base + "/debug/pprof/" + profile + "?debug=1")
		if err != nil {
			t.Fatal(err)
		}
		text, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		sawCanary := false
		for _, sample := range strings.Split(string(text), "\n\n") {
			locker := lockCaller(sample)
			sawCanary = sawCanary || strings.HasPrefix(locker, "repro/cmd/schedd.TestMutexProfileSparesReadPath")
			if readPath.MatchString(sample) && locker != trackerJob && locker != trackerJob+".deferwrap1" {
				t.Fatalf("%s profile: %s took a contended lock on the read path:\n%s", profile, locker, sample)
			}
		}
		if !sawCanary {
			t.Fatalf("%s profile lacks the canary sample:\n%s", profile, text)
		}
	}
	d.stop <- syscall.SIGTERM
	if err := d.wait(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// lockCaller returns the first frame of a debug=1 contention profile
// sample outside the runtime and sync packages, without its offset: the
// function that took the lock (or blocked).
func lockCaller(sample string) string {
	for _, line := range strings.Split(sample, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "#" {
			continue
		}
		if fn, _, _ := strings.Cut(f[2], "+"); !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "sync.") && !strings.HasPrefix(fn, "internal/sync.") {
			return fn
		}
	}
	return ""
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
// error rather than a served daemon, and that an out-of-range number is
// such an error — naming its flag — rather than a silent default. A
// configuration wrongly accepted serves on a free port until the
// already-pending signal drains it, and run returns nil.
func TestRunRejectsBadFlags(t *testing.T) {
	runOnce := func(args []string) error {
		stop := make(chan os.Signal, 1)
		stop <- syscall.SIGTERM
		return run(append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, stop)
	}
	for _, args := range [][]string{
		{"-slaves", "Inf:2"},
		{"-policy", "FIFO"},
		{"-virtual", "-steal", "threshold", "-slaves", "1:1,1:1", "-shards", "2"},
		{"-no-such-flag"},
	} {
		if err := runOnce(args); err == nil {
			t.Fatalf("run(%q) succeeded", args)
		}
	}
	for _, args := range [][]string{
		{"-m", "-3"}, {"-m", "0"}, {"-shards", "0"}, {"-shards", "-2"},
		{"-ingest-queue", "-5"}, {"-max-batch", "-1"}, {"-max-batch", "0"},
		{"-record-segments", "-3"}, {"-record-segment-bytes", "5"}, {"-record-segment-bytes", "-1"},
		{"-steal-interval", "-1s"}, {"-steal-interval", "0s"}, {"-snapshot-interval", "-1s"},
		{"-audit-depth", "-1"}, {"-clock-scale", "0"}, {"-clock-scale", "NaN"}, {"-mutexprofile", "-1"},
	} {
		if err := runOnce(args); err == nil || !strings.Contains(err.Error(), args[0]+" ") {
			t.Fatalf("run(%q) = %v, want an error naming %s", args, err, args[0])
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
