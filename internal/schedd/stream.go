package schedd

// POST /v1/jobs:stream — the bulk-ingest firehose endpoint. The request
// body is NDJSON: one SubmitRequest per line, each placed as a single
// batched routing decision (cluster.Router.SubmitRange — one scored
// placement pass and one intake flush per line, never per job). The
// response streams back one StreamAck per line as it is admitted, so a
// client always knows exactly which jobs the service accepted.
//
// Decoding is pipelined: a reader goroutine splits the wire into lines,
// W workers (GOMAXPROCS capped at 8; one on a single-core host) parse
// JSON in parallel, and the handler goroutine acts as the sequencer — it
// consumes parsed lines in arrival order and performs validation,
// placement and acks strictly in that order. Parsing is commutative, so
// only the sequencer touches the router: global-ID assignment order and
// per-line ack order are exactly wire order, line for line, at any W.
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
// Backpressure: the router's intake blocks SubmitRange while the bounded
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
//	sequencer — this goroutine: receives slots in wire order, waits for
//	          each parse, and runs validation → placement → ack. Only it
//	          calls SubmitRange, so ID assignment stays arrival order.
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
	ack := func(a StreamAck) bool {
		if err := enc.Encode(a); err != nil {
			return false
		}
		if fl != nil {
			fl.Flush()
		}
		return true
	}
	fail := func(line int, msg string) {
		ack(StreamAck{Line: line, Error: msg + " (stream aborted; earlier acked lines remain accepted)"})
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
	// happens-before edge that lets the sequencer read them after the
	// range loop ends.
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

	for j := range order {
		<-j.ready
		if j.err != nil {
			fail(j.line, "bad request line: "+j.err.Error())
			return
		}
		line, req := j.line, j.req
		// The slot's buf and req have been consumed; recycle it before the
		// (potentially blocking) placement so the pipeline keeps decoding
		// ahead. free has slot-count capacity, the send cannot block.
		free <- j
		if !s.submitLine(line, req, ack, fail) {
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

// submitLine is the sequencer stage: validate one parsed line, place
// it, ack it. Returns false when the stream must stop (terminal ack
// already sent, or the client is gone).
func (s *Server) submitLine(line int, req SubmitRequest, ack func(StreamAck) bool, fail func(int, string)) bool {
	if err := s.validate(&req); err != nil {
		fail(line, err.Error())
		return false
	}
	base, err := s.router.SubmitRange(live.JobSpec{CommScale: req.CommScale, CompScale: req.CompScale}, req.Count)
	if err != nil {
		if errors.Is(err, cluster.ErrDraining) {
			fail(line, "draining: no new jobs accepted")
			return false
		}
		fail(line, err.Error())
		return false
	}
	if !ack(StreamAck{Line: line, Base: base, Count: req.Count}) {
		// The client is gone; jobs already admitted stay admitted.
		return false
	}
	return true
}
