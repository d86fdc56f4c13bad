package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/schedd"
	"repro/pkg/schedclient"
)

// The canonical service configuration, frozen from BENCH_PR9/PR10: the
// eight-slave heterogeneous platform split over four masters.
const (
	shards     = 4
	policy     = "LS"
	placement  = cluster.PlacementLeastLoaded
	partition  = core.PartitionBalanced
	clockScale = 400 // real-clock workloads: one model second is 2.5 ms
)

func canonicalPlatform() core.Platform {
	return core.NewPlatform(
		[]float64{0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.1, 0.2},
		[]float64{0.4, 0.8, 0.4, 0.8, 0.4, 0.8, 0.4, 0.8})
}

// serviceConfig is the canonical schedd configuration: virtual selects the
// firehose (-virtual) service, otherwise the real-clock one. Observability
// stays at the service defaults.
func serviceConfig(virtual bool) schedd.Config {
	return schedd.Config{
		Platform:     canonicalPlatform(),
		Policy:       policy,
		Shards:       shards,
		Placement:    placement,
		Partition:    partition,
		VirtualClock: virtual,
		ClockScale:   clockScale,
	}
}

// service is one schedd instance hosted in-process behind a loopback TCP
// listener, with the HTTP client the generators share.
type service struct {
	srv *schedd.Server
	ts  *httptest.Server
	hc  *http.Client
	cli *schedclient.Client
}

func newService(cfg schedd.Config) (*service, error) {
	srv, err := schedd.New(cfg)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &service{srv: srv, ts: ts, hc: ts.Client(), cli: schedclient.New(ts.URL)}, nil
}

// close drains the service (a no-op when already drained) and shuts the
// listener down.
func (s *service) close() error {
	err := s.srv.Drain()
	s.hc.CloseIdleConnections()
	s.ts.Close()
	return err
}

// get issues one GET and returns the status and the whole body. The
// caller's context bounds the request.
func (s *service) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// counters reads GET /metrics and sums each metric family over its label
// sets. Server.Stats() carries the same counters but rebuilds the whole
// population's statistics to deliver them.
func (s *service) counters(ctx context.Context) (map[string]float64, error) {
	status, body, err := s.get(ctx, "/metrics")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d, %v", status, err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name, value = line[:i], line[strings.LastIndexByte(line, ' ')+1:]
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] += v
		}
	}
	return out, nil
}

// streamOutcome is what one /v1/jobs:stream connection saw.
type streamOutcome struct {
	acks    []schedd.StreamAck // in arrival (= line) order
	ackedAt []time.Time        // receipt time of each ack
	sentAt  []time.Time        // when each line entered the connection
	err     error
}

// latenciesMS returns each acked line's send-to-ack delay.
func (o *streamOutcome) latenciesMS() []float64 {
	out := make([]float64, len(o.acks))
	for i := range o.acks {
		out[i] = float64(o.ackedAt[i].Sub(o.sentAt[i])) / 1e6
	}
	return out
}

// streamLines posts lines over one POST /v1/jobs:stream connection as a
// closed loop: at most window lines are un-acked at any moment, and the
// next line is sent as soon as a slot frees. pace, when non-nil, instead
// makes the loop open: line i is held until the due time pace(i) returns
// and its latency is counted from then; pace ends the stream early by
// returning false. onSend, when non-nil, brackets each line's write (the
// traced run's span hook).
//
// schedclient.JobStream reports only totals; the benchmark needs each
// ack's ID range and receipt time, so it reads the ack stream itself.
func streamLines(ctx context.Context, s *service, lines [][]byte, window int,
	pace func(i int) (time.Time, bool), onSend func(i int) func()) streamOutcome {
	out := streamOutcome{sentAt: make([]time.Time, len(lines))}
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/v1/jobs:stream", pr)
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/x-ndjson")

	// sent[i] is line i's send time in ns since base; the ack reader loads
	// it atomically because only the network orders the two goroutines.
	base := time.Now()
	sent := make([]atomic.Int64, len(lines))
	slots := make(chan struct{}, window)
	readerDone := make(chan error, 1)
	go func() {
		readerDone <- func() error {
			resp, err := s.hc.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("POST /v1/jobs:stream: %s", resp.Status)
			}
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 4096), 1<<20)
			for sc.Scan() {
				var ack schedd.StreamAck
				if err := json.Unmarshal(sc.Bytes(), &ack); err != nil {
					return fmt.Errorf("bad ack line: %w", err)
				}
				if ack.Error != "" {
					return fmt.Errorf("line %d: %s", ack.Line, ack.Error)
				}
				i := len(out.acks)
				if i >= len(lines) {
					return fmt.Errorf("ack for line %d of %d", ack.Line, len(lines))
				}
				out.acks = append(out.acks, ack)
				out.ackedAt = append(out.ackedAt, time.Now())
				out.sentAt[i] = base.Add(time.Duration(sent[i].Load()))
				<-slots
			}
			return sc.Err()
		}()
		// Unblock a sender parked on the window or the pipe.
		pr.CloseWithError(io.ErrClosedPipe)
	}()

	bw := bufio.NewWriterSize(pw, 32<<10)
	var sendErr error
	sending := 0 // lines handed to the connection
send:
	for i, line := range lines {
		if pace != nil {
			due, more := pace(i)
			if !more {
				break
			}
			if d := time.Until(due); d > 0 {
				if sendErr = bw.Flush(); sendErr != nil {
					break
				}
				time.Sleep(d)
			}
			sent[i].Store(int64(due.Sub(base)))
		}
		select {
		case slots <- struct{}{}:
		default:
			// The window is full: everything buffered must reach the
			// service before waiting, or its acks never come.
			if sendErr = bw.Flush(); sendErr != nil {
				break send
			}
			select {
			case slots <- struct{}{}:
			case <-ctx.Done():
				sendErr = ctx.Err()
				break send
			}
		}
		var done func()
		if onSend != nil {
			done = onSend(i)
		}
		if pace == nil {
			sent[i].Store(int64(time.Since(base)))
		}
		_, sendErr = bw.Write(line)
		if done != nil {
			done()
		}
		if sendErr != nil {
			break
		}
		sending++
	}
	if sendErr == nil {
		sendErr = bw.Flush()
	}
	pw.Close()
	if err := <-readerDone; err != nil {
		out.err = err
	} else if sendErr != nil {
		out.err = sendErr
	} else if len(out.acks) != sending {
		out.err = fmt.Errorf("stream acked %d of %d lines", len(out.acks), sending)
	}
	return out
}
