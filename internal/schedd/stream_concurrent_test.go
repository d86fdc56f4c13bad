package schedd

// Concurrency suite for the bulk-ingest spine: many stream connections,
// lock-free job lookups and Drain all racing. Run under -race this
// exercises the chunked job index, the per-shard intake locks and the
// parallel decode pipeline end to end; the assertions pin the ordering
// contracts the concurrency must not weaken — per-connection acks in
// line order, globally disjoint ID ranges tiling [0, total), and a
// drain that completes exactly what was acked.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/live"
)

// concurrentServer is virtualServer with the decode pipeline's worker
// count pinned (the tests must cover parallel parsing even on a
// single-core runner, where the GOMAXPROCS-derived count is one).
func concurrentServer(t *testing.T, shards, workers int) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Platform: core.NewPlatform(
			[]float64{0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.1, 0.2},
			[]float64{0.4, 0.8, 0.4, 0.8, 0.4, 0.8, 0.4, 0.8}),
		Policy:           "LS",
		Shards:           shards,
		Placement:        "least-loaded",
		VirtualClock:     true,
		IngestQueueDepth: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.streamWorkers = workers
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestStreamConcurrentClients races N stream connections against
// concurrent GET /v1/jobs/{id} readers and then Drain. Asserted:
// every connection's acks arrive in its own line order with the full
// line count, the acked global-ID ranges are disjoint and tile
// [0, total) exactly, the readers only ever observe consistent job
// views, and after Drain completed == submitted == total.
func TestStreamConcurrentClients(t *testing.T) {
	s, ts := concurrentServer(t, 4, 4)
	const clients, lines, per = 4, 40, 25
	const total = clients * lines * per

	// Readers: hammer the lock-free lookup path while ingest runs. A gid
	// may not be issued yet (404) — any 200 must be internally consistent.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for rd := 0; rd < 3; rd++ {
		rd := rd
		readers.Add(1)
		go func() {
			defer readers.Done()
			gid := rd * 977 % total
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, gid))
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusNotFound:
				case http.StatusOK:
					var jr JobResponse
					if err := json.Unmarshal(body, &jr); err != nil {
						t.Errorf("reader gid %d: bad body %q: %v", gid, body, err)
						return
					}
					if jr.ID != gid {
						t.Errorf("reader gid %d: response carries ID %d", gid, jr.ID)
						return
					}
				default:
					t.Errorf("reader gid %d: status %d body %q", gid, resp.StatusCode, body)
					return
				}
				gid = (gid + 1) % total
			}
		}()
	}

	// Producers: each connection sends its lines as one NDJSON body and
	// decodes the streamed acks. The payload varies per line so decode
	// work is non-trivial under the parallel workers.
	type ackRange struct{ base, count int }
	ranges := make([][]ackRange, clients)
	var producers sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		producers.Add(1)
		go func() {
			defer producers.Done()
			var body strings.Builder
			for l := 0; l < lines; l++ {
				fmt.Fprintf(&body, "{\"count\":%d,\"comp_scale\":%g}\n", per, 1+float64(l%3)/4)
			}
			resp, err := http.Post(ts.URL+"/v1/jobs:stream", "application/x-ndjson", strings.NewReader(body.String()))
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			defer resp.Body.Close()
			dec := json.NewDecoder(resp.Body)
			for l := 0; ; l++ {
				var a StreamAck
				if err := dec.Decode(&a); err == io.EOF {
					if l != lines {
						t.Errorf("client %d: %d acks for %d lines", c, l, lines)
					}
					return
				} else if err != nil {
					t.Errorf("client %d: decoding ack %d: %v", c, l, err)
					return
				}
				if a.Error != "" {
					t.Errorf("client %d: ack %d error %q", c, l, a.Error)
					return
				}
				// The ordering pin: connection c's l-th ack answers its l-th
				// line, regardless of how many workers parsed ahead.
				if a.Line != l+1 {
					t.Errorf("client %d: ack %d answers line %d", c, l, a.Line)
					return
				}
				if a.Count != per {
					t.Errorf("client %d: ack %d count %d, want %d", c, l, a.Count, per)
					return
				}
				ranges[c] = append(ranges[c], ackRange{a.Base, a.Count})
			}
		}()
	}
	producers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Globally: the acked ranges must be disjoint and tile [0, total) —
	// no duplicate, no hole, no ID minted outside an ack.
	var all []ackRange
	for _, rs := range ranges {
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].base < all[j].base })
	next := 0
	for _, r := range all {
		if r.base != next {
			t.Fatalf("acked ranges do not tile: want base %d, got %d", next, r.base)
		}
		next += r.count
	}
	if next != total {
		t.Fatalf("acked ranges cover [0, %d), want [0, %d)", next, total)
	}

	// A late producer racing Drain must either be fully acked before the
	// barrier or get the terminal draining ack — never a hang, never a
	// lost ack.
	late := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs:stream", "application/x-ndjson",
			strings.NewReader("{\"count\":1}\n"))
		if err != nil {
			late <- err
			return
		}
		defer resp.Body.Close()
		var a StreamAck
		if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
			late <- fmt.Errorf("late ack: %w", err)
			return
		}
		if a.Error != "" && !strings.Contains(a.Error, "draining") {
			late <- fmt.Errorf("late ack error %q", a.Error)
			return
		}
		if a.Error != "" {
			late <- nil // refused by the drain barrier
			return
		}
		late <- fmt.Errorf("accepted:%d", a.Count)
	}()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	lateJobs := 0
	if err := <-late; err != nil {
		var n int
		if _, scanErr := fmt.Sscanf(err.Error(), "accepted:%d", &n); scanErr == nil {
			lateJobs = n
		} else {
			t.Fatal(err)
		}
	}

	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", code)
	}
	want := total + lateJobs
	if stats.Jobs.Submitted != want || stats.Jobs.Completed != want {
		t.Fatalf("jobs %+v, want %d submitted and completed", stats.Jobs, want)
	}
	if stats.Firehose == nil {
		t.Fatal("stats missing firehose stanza in virtual-clock mode")
	}
	if stats.Firehose.Queued != 0 {
		t.Fatalf("drained intake still reports %d queued", stats.Firehose.Queued)
	}
	if stats.Firehose.SlabGets == 0 {
		t.Fatal("slab-pool counters never moved")
	}
	// Every issued ID resolves to a completed job after the drain.
	for _, gid := range []int{0, total / 3, total - 1} {
		var jr JobResponse
		if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, gid), &jr); code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%d after drain: %d", gid, code)
		}
		if jr.State != "done" {
			t.Fatalf("gid %d state %q after drain", gid, jr.State)
		}
	}
}

// TestStreamWorkerCountDifferential pins that the decode pipeline's
// worker count is not observable: the same body through W = 1 (what a
// one-core host derives) and W = 4 yields byte-identical ack streams and
// identical job counts — including a stream cut short by a malformed
// line and one cut short by an oversized count, where the terminal ack
// must land on the same line after the same accepted prefix.
func TestStreamWorkerCountDifferential(t *testing.T) {
	var good strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&good, "{\"count\":%d,\"comp_scale\":%g}\n", 1+i%7, 1+float64(i%3)/4)
		if i%9 == 0 {
			good.WriteString("\n") // blank separators are skipped, not acked
		}
	}
	bodies := map[string]string{
		"clean":           good.String(),
		"malformed line":  good.String() + "{not json\n" + good.String(),
		"oversized count": good.String() + "{\"count\":20000}\n" + good.String(),
	}
	for name, body := range bodies {
		var wantAcks []byte
		var wantCounts live.Counts
		for _, workers := range []int{1, 4} {
			s, ts := concurrentServer(t, 2, workers)
			resp, err := http.Post(ts.URL+"/v1/jobs:stream", "application/x-ndjson", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			acks, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			counts := s.Counts()
			if counts.Submitted == 0 || counts.Completed != counts.Submitted {
				t.Fatalf("%s, W=%d: counts %+v", name, workers, counts)
			}
			if workers == 1 {
				wantAcks, wantCounts = acks, counts
				continue
			}
			if !bytes.Equal(acks, wantAcks) {
				t.Errorf("%s: ack stream differs between W=1 and W=%d:\n%s\n---\n%s", name, workers, wantAcks, acks)
			}
			if counts != wantCounts {
				t.Errorf("%s: counts %+v at W=%d, %+v at W=1", name, counts, workers, wantCounts)
			}
		}
		if name != "clean" && !bytes.Contains(wantAcks, []byte(`"error"`)) {
			t.Errorf("%s: no terminal ack in %s", name, wantAcks)
		}
	}
}

// TestStreamParallelErrorOrdering pins the sequencer's error contract:
// a malformed line is only reported after every earlier line's ack,
// even though a parse worker may have seen the bad line first.
func TestStreamParallelErrorOrdering(t *testing.T) {
	_, ts := concurrentServer(t, 2, 4)
	var body strings.Builder
	const good = 12
	for i := 0; i < good; i++ {
		fmt.Fprintf(&body, "{\"count\":2}\n")
	}
	body.WriteString("{not json\n{\"count\":5}\n")
	acks := streamLines(t, ts, body.String())
	if len(acks) != good+1 {
		t.Fatalf("%d acks, want %d", len(acks), good+1)
	}
	for i := 0; i < good; i++ {
		if acks[i].Error != "" || acks[i].Line != i+1 {
			t.Fatalf("ack %d: %+v", i, acks[i])
		}
	}
	terminal := acks[good]
	if terminal.Error == "" || terminal.Line != good+1 {
		t.Fatalf("terminal ack %+v", terminal)
	}
	if !strings.Contains(terminal.Error, "bad request line") {
		t.Fatalf("terminal error %q", terminal.Error)
	}
}
