package schedd

// POST /v1/jobs:stream — the bulk-ingest firehose endpoint. The request
// body is NDJSON: one SubmitRequest per line. The response streams back
// one StreamAck per line as it is admitted, so a client always knows
// exactly which jobs the service accepted.
//
// Decoding is pipelined: a reader goroutine splits the wire into lines,
// W workers (GOMAXPROCS capped at 8; one on a single-core host) parse
// JSON in parallel, and the handler goroutine acts as the sequencer — it
// consumes parsed lines in arrival order and performs validation,
// placement and acks strictly in that order. Parsing is commutative, so
// only the sequencer touches the router: global-ID assignment order and
// per-line ack order are exactly wire order, line for line, at any W.
//
// The sequencer admits runs of adjacent lines, not single lines: once a
// line has parsed it also takes every later line that has already
// arrived and parsed (it never waits for more), up to streamRunJobs
// jobs, and places the run as one batched routing decision
// (cluster.Router.SubmitRuns — one scored placement pass, one ID range
// and one audit entry per run, never per job), each line keeping its own
// stretch of the range and its own spec. The run's acks are encoded in
// line order and flushed once. A client that waits for each ack before
// sending the next line gets runs of one; a client that pipelines gets
// its one-job lines admitted a slab at a time. Which lines share a run
// depends on arrival timing, so /v1/decisions' entry count does too; the
// acks do not.
//
// Error semantics are partial-accept: the first bad line (malformed
// JSON, out-of-bounds count or scales, service draining) produces
// a terminal ack carrying the error and the stream stops — but every
// previously acked line stays accepted and will be served to completion.
// Because error acks are issued by the sequencer in line order, a
// malformed line never aborts the stream before earlier lines are acked,
// even if a worker parsed it first. The HTTP status is always 200:
// per-line status lives in the acks, which is the only place it can live
// once the header has been sent.
//
// Backpressure: the router's intake blocks SubmitRuns while the bounded
// queue (Config.IngestQueueDepth) is full, on either clock, which
// propagates to the client as TCP backpressure (the decode pipeline
// adds only its fixed slot budget of lookahead).

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/live"
)

// StreamAck is one line of the POST /v1/jobs:stream response: the
// submitted line's consecutive global ID range [Base, Base+Count), or a
// terminal error. An ack with Error set ends the stream; lines acked
// before it remain accepted (partial-accept), lines after it were never
// read.
type StreamAck struct {
	// Line is the 1-based NDJSON line this ack answers.
	Line int `json:"line"`
	// Base and Count give the accepted jobs' global IDs: Count jobs with
	// consecutive IDs starting at Base. Both are 0 on an error ack.
	Base  int `json:"base"`
	Count int `json:"count"`
	// Error, when set, makes this ack terminal.
	Error string `json:"error,omitempty"`
}

// streamMaxLine bounds one SubmitRequest on the wire — an NDJSON line
// here, the whole body on POST /v1/jobs (a SubmitRequest is tens of
// bytes; a megabyte one is a protocol error, not a big batch).
const streamMaxLine = 1 << 20

// streamRunJobs closes a sequencer run once it holds this many jobs: the
// intake's slab size, so a run of one-job lines fills about one slab and
// a bulk line is a run of its own.
const streamRunJobs = 512

// streamJob is one NDJSON line in flight through the decode pipeline.
// Slots are recycled through a per-request freelist, so a steady stream
// allocates nothing per line: buf is reused for the line copy, ready
// (capacity 1) carries the worker's parse-complete signal.
type streamJob struct {
	line  int
	buf   []byte
	req   SubmitRequest
	err   error
	ready chan struct{}
}

// handleStream runs the decode pipeline. Three stages:
//
//	reader  — scans the body, copies each line into a pooled slot, and
//	          hands the slot to the workers (work) and, in the same
//	          order, to the sequencer (order).
//	workers — s.streamWorkers goroutines JSON-parse slots in parallel,
//	          signalling each slot's ready channel when done.
//	sequencer — this goroutine: receives slots in wire order, gathers
//	          each run of adjacent parsed lines, validates them in order,
//	          places the run and acks its lines with one flush. Only it
//	          calls SubmitRuns, so ID assignment stays arrival order.
//
// The slot freelist bounds lookahead (the reader blocks when all slots
// are in flight) and makes the steady state allocation-free. On early
// termination — terminal ack, client gone — closing done releases the
// reader wherever it is blocked; in-flight slots are abandoned to the
// GC rather than recycled, because a worker may still hold one.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	// Interactive clients interleave "send a line, read its ack", so the
	// response must start while the request body is still open. Without
	// full duplex the HTTP/1.x server drains the remaining body before
	// the first response byte — a deadlock against a client that is
	// waiting for an ack before sending more. Best-effort: transports
	// that don't support the knob (HTTP/2) are duplex natively.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	fail := func(line int, msg string) {
		if enc.Encode(StreamAck{Line: line, Error: msg + " (stream aborted; earlier acked lines remain accepted)"}) == nil {
			flush()
		}
	}

	workers := s.streamWorkers
	depth := 4 * workers
	work := make(chan *streamJob, depth)
	order := make(chan *streamJob, depth)
	free := make(chan *streamJob, depth)
	for i := 0; i < depth; i++ {
		free <- &streamJob{ready: make(chan struct{}, 1)}
	}
	done := make(chan struct{})
	defer close(done)

	// Written by the reader before it closes order; the close is the
	// happens-before edge that lets the sequencer read them after its
	// loop ends.
	var lastLine int
	var scanErr error

	go func() {
		defer close(work)
		defer close(order)
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 0, 64*1024), streamMaxLine)
		line := 0
		for sc.Scan() {
			raw := sc.Bytes()
			line++
			if len(raw) == 0 {
				continue // blank separator lines are tolerated, not acked
			}
			var j *streamJob
			select {
			case j = <-free:
			case <-done:
				return
			}
			j.line = line
			j.buf = append(j.buf[:0], raw...)
			select {
			case work <- j:
			case <-done:
				return
			}
			select {
			case order <- j:
			case <-done:
				return
			}
		}
		lastLine = line
		scanErr = sc.Err()
	}()

	for i := 0; i < workers; i++ {
		go func() {
			for j := range work {
				j.req, j.err = decodeSubmit(j.buf)
				j.ready <- struct{}{}
			}
		}()
	}

	// The sequencer. Each pass gathers one run: the first line (waiting
	// for it and its parse), then every further line order already holds
	// whose parse is already complete — never waiting for more. lines[i]
	// is the wire line runs[i] admits. A run ends at an empty order, at a
	// line still parsing (it opens the next run), at the first bad line,
	// or once it holds streamRunJobs jobs.
	var (
		lines []int
		runs  []cluster.Run
		next  *streamJob // taken from order, its parse not yet awaited
		eof   bool       // order is closed and empty
	)
	for !eof {
		j := next
		if j == nil {
			var ok bool
			if j, ok = <-order; !ok {
				break
			}
		}
		next = nil
		<-j.ready
		lines, runs = lines[:0], runs[:0]
		jobs, badLine, badMsg := 0, 0, ""
		for j != nil {
			req, line, err := j.req, j.line, j.err
			// The slot's buf and req have been consumed; recycle it before
			// the (potentially blocking) placement so the pipeline keeps
			// decoding ahead. free has slot-count capacity, the send cannot
			// block.
			free <- j
			j = nil
			if err != nil {
				badLine, badMsg = line, "bad request line: "+err.Error()
				break
			}
			if err := s.validate(&req); err != nil {
				badLine, badMsg = line, err.Error()
				break
			}
			lines = append(lines, line)
			runs = append(runs, cluster.Run{Spec: live.JobSpec{CommScale: req.CommScale, CompScale: req.CompScale}, Count: req.Count})
			if jobs += req.Count; jobs >= streamRunJobs {
				break
			}
			select {
			case k, ok := <-order:
				switch {
				case !ok:
					eof = true
				case len(k.ready) > 0:
					<-k.ready
					j = k
				default:
					next = k
				}
			default:
			}
		}
		if len(runs) > 0 && !s.admitRun(lines, runs, enc, flush, fail) {
			return
		}
		if badMsg != "" {
			fail(badLine, badMsg)
			return
		}
	}
	if scanErr != nil {
		// Disconnect mid-line or an oversized line: a best-effort terminal
		// ack (the connection may already be dead). Everything acked so
		// far remains accepted.
		fail(lastLine+1, "reading stream: "+scanErr.Error())
	}
}

// admitRun places one run of validated lines with a single router call
// and acks each line, in line order, with its own stretch of the run's
// consecutive ID range, then flushes once. Returns false when the
// stream must stop (terminal ack already sent, or the client is gone).
func (s *Server) admitRun(lines []int, runs []cluster.Run, enc *json.Encoder, flush func(), fail func(int, string)) bool {
	base, err := s.router.SubmitRuns(runs)
	if err != nil {
		if errors.Is(err, cluster.ErrDraining) {
			fail(lines[0], "draining: no new jobs accepted")
			return false
		}
		fail(lines[0], err.Error())
		return false
	}
	for i, run := range runs {
		if enc.Encode(StreamAck{Line: lines[i], Base: base, Count: run.Count}) != nil {
			// The client is gone; jobs already admitted stay admitted.
			return false
		}
		base += run.Count
	}
	flush()
	return true
}
