package schedd

// Run contract of POST /v1/jobs:stream: the sequencer admits adjacent
// lines that have already arrived and parsed as one run, and never
// waits for a line that has not arrived. How lines group into runs is
// not observable in the acks: a body sent whole (long runs) and the
// same body sent one line per ack (runs of one) answer byte for byte
// alike, and every acked job carries its own line's spec.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
)

// lockstepTimeout bounds the wait for one line's ack: far beyond any
// admission, so only a sequencer waiting for lines that were never sent
// can exceed it.
const lockstepTimeout = 5 * time.Second

// lockstep is an open POST /v1/jobs:stream whose body is written one
// line at a time through a pipe; acks arrives as raw ack lines.
type lockstep struct {
	body *io.PipeWriter
	acks chan []byte
	errs chan error
}

// openLockstep starts the request. The response header only arrives
// with the first ack, so the client runs on its own goroutine.
func openLockstep(t *testing.T, ts *httptest.Server) *lockstep {
	t.Helper()
	pr, pw := io.Pipe()
	ls := &lockstep{body: pw, acks: make(chan []byte, 1), errs: make(chan error, 1)}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs:stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	go func() {
		defer close(ls.acks)
		resp, err := ts.Client().Do(req)
		if err != nil {
			ls.errs <- err
			return
		}
		defer resp.Body.Close()
		rd := bufio.NewReader(resp.Body)
		for {
			line, err := rd.ReadBytes('\n')
			if len(line) > 0 {
				ls.acks <- line
			}
			if err != nil {
				if err != io.EOF {
					ls.errs <- err
				}
				return
			}
		}
	}()
	t.Cleanup(func() { pw.Close() })
	return ls
}

// send writes one line and returns its ack, failing the test if the ack
// does not arrive within lockstepTimeout.
func (ls *lockstep) send(t *testing.T, line string) []byte {
	t.Helper()
	if _, err := io.WriteString(ls.body, line); err != nil {
		t.Fatalf("sending %q: %v", line, err)
	}
	select {
	case a, ok := <-ls.acks:
		if !ok {
			select {
			case err := <-ls.errs:
				t.Fatalf("stream ended before the ack of %q: %v", line, err)
			default:
				t.Fatalf("stream ended before the ack of %q", line)
			}
		}
		return a
	case <-time.After(lockstepTimeout):
		t.Fatalf("no ack for %q within %v: the sequencer waited for a line that was not sent", line, lockstepTimeout)
	}
	return nil
}

// TestStreamLockstepClient pins that a run never waits for lines that
// have not arrived: a client that sends one one-job line and reads its
// ack before sending the next gets every ack, 50 times over.
func TestStreamLockstepClient(t *testing.T) {
	s, ts := concurrentServer(t, 2, 4)
	ls := openLockstep(t, ts)
	const lines = 50
	for i := 0; i < lines; i++ {
		want := fmt.Sprintf(`{"line":%d,"base":%d,"count":1}`+"\n", i+1, i)
		if got := ls.send(t, fmt.Sprintf("{\"comp_scale\":%g}\n", 1+float64(i%4)/4)); string(got) != want {
			t.Fatalf("line %d: ack %q, want %q", i+1, got, want)
		}
	}
	ls.body.Close()
	if _, more := <-ls.acks; more {
		t.Fatal("ack after the last line")
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if c := s.Counts(); c.Submitted != lines || c.Completed != lines {
		t.Fatalf("counts %+v, want %d submitted and completed", c, lines)
	}
}

// checkSpecs asserts that each acked line's job ran with the line's own
// scales: on the virtual clock a job's send takes exactly c·comm_scale
// and its computation p·comp_scale on the slave that served it.
func checkSpecs(t *testing.T, s *Server, pl core.Platform, acks []byte, scales map[int][2]float64) {
	t.Helper()
	for _, raw := range bytes.Split(bytes.TrimSpace(acks), []byte("\n")) {
		var a StreamAck
		if _, err := fmt.Sscanf(string(raw), `{"line":%d,"base":%d,"count":%d}`, &a.Line, &a.Base, &a.Count); err != nil {
			continue // the terminal error ack
		}
		want := scales[a.Line]
		job, ok := s.Router().Job(a.Base)
		if !ok || job.State != live.StateDone {
			t.Fatalf("line %d: gid %d is %+v after drain", a.Line, a.Base, job)
		}
		comm := (job.Arrive - job.SendStart) / pl.C[job.Slave]
		comp := (job.Complete - job.Start) / pl.P[job.Slave]
		if math.Abs(comm-want[0]) > 1e-9 || math.Abs(comp-want[1]) > 1e-9 {
			t.Fatalf("line %d (gid %d) ran with scales %g/%g, its line says %g/%g", a.Line, a.Base, comm, comp, want[0], want[1])
		}
	}
}

// TestStreamCoalescingDifferential sends one body of perturbed one-job
// lines, with a malformed line in the middle, twice: whole (the
// sequencer coalesces long runs) and in lockstep (runs of one). The two
// ack streams must be byte-identical, the drained counts equal, and
// every acked job must carry its own line's spec.
func TestStreamCoalescingDifferential(t *testing.T) {
	const lines, bad = 600, 400
	var body strings.Builder
	scales := map[int][2]float64{}
	for i := 1; i <= lines; i++ {
		if i == bad {
			body.WriteString("{\"comm_scale\":\n")
			continue
		}
		// Every line carries its own scales, so a job admitted with a
		// neighbour's spec shows.
		comm, comp := 0.5+float64(i%7)/8, 0.75+float64(i%5)/10
		fmt.Fprintf(&body, "{\"comm_scale\":%g,\"comp_scale\":%g}\n", comm, comp)
		scales[i] = [2]float64{comm, comp}
	}

	whole, wts := concurrentServer(t, 4, 4)
	resp, err := http.Post(wts.URL+"/v1/jobs:stream", "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	wholeAcks, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.Drain(); err != nil {
		t.Fatal(err)
	}

	step, sts := concurrentServer(t, 4, 4)
	ls := openLockstep(t, sts)
	var stepAcks []byte
	for _, line := range strings.SplitAfter(body.String(), "\n")[:bad] {
		stepAcks = append(stepAcks, ls.send(t, line)...)
	}
	ls.body.Close()
	for a := range ls.acks {
		stepAcks = append(stepAcks, a...)
	}
	if err := step.Drain(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(wholeAcks, stepAcks) {
		t.Fatalf("ack streams differ:\nwhole    %s\nlockstep %s", wholeAcks, stepAcks)
	}
	if n := bytes.Count(wholeAcks, []byte("\n")); n != bad || !bytes.Contains(wholeAcks, []byte(fmt.Sprintf(`{"line":%d,"base":0,"count":0,"error":"bad request line`, bad))) {
		t.Fatalf("%d acks, want %d ending in line %d's terminal error:\n%s", n, bad, bad, wholeAcks)
	}
	if wc, sc := whole.Counts(), step.Counts(); wc != sc || wc.Completed != bad-1 {
		t.Fatalf("counts: whole %+v, lockstep %+v, want %d completed", wc, sc, bad-1)
	}
	// The whole body really was coalesced and the lockstep one really was
	// not: one placement decision per run.
	decided := func(s *Server) int { a := s.Router().Audit(); return a.Len() + int(a.Dropped()) }
	if d := decided(step); d != bad-1 {
		t.Fatalf("lockstep stream made %d placement decisions for %d lines", d, bad-1)
	}
	if d := decided(whole); d >= bad-1 {
		t.Fatalf("whole body made %d placement decisions for %d lines: no run coalesced", d, bad-1)
	}
	pl := whole.cfg.Platform
	checkSpecs(t, whole, pl, wholeAcks, scales)
	checkSpecs(t, step, pl, stepAcks, scales)
}

// FuzzStreamAcks: whatever the body, the decode pipeline's worker count
// is not observable — W = 1 and W = 4 answer byte-identical ack streams
// and drain to equal counts. The servers are in-memory (no socket) with
// a small MaxBatch, so an iteration costs milliseconds.
func FuzzStreamAcks(f *testing.F) {
	f.Add([]byte("{\"count\":3}\n{}\n{\"comp_scale\":2}\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		var wantAcks []byte
		var wantCounts live.Counts
		for _, workers := range []int{1, 4} {
			s, err := New(Config{
				Platform:        core.NewPlatform([]float64{0.1, 0.2, 0.3, 0.1}, []float64{0.4, 0.8, 0.4, 0.8}),
				Policy:          "LS",
				Shards:          2,
				Placement:       "least-loaded",
				VirtualClock:    true,
				MaxBatch:        64,
				DisableMetrics:  true,
				DisableRecorder: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			s.streamWorkers = workers
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs:stream", bytes.NewReader(body)))
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			counts := s.Counts()
			if counts.Completed != counts.Submitted {
				t.Fatalf("W=%d: counts %+v after drain", workers, counts)
			}
			if workers == 1 {
				wantAcks, wantCounts = rec.Body.Bytes(), counts
				continue
			}
			if !bytes.Equal(rec.Body.Bytes(), wantAcks) {
				t.Fatalf("body %q: acks differ between W=1 and W=%d:\n%s\n---\n%s", body, workers, wantAcks, rec.Body.Bytes())
			}
			if counts != wantCounts {
				t.Fatalf("body %q: counts %+v at W=%d, %+v at W=1", body, counts, workers, wantCounts)
			}
		}
	})
}
