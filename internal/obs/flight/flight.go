// Package flight is the always-on, bounded flight recorder: it journals
// the serving stack's existing telemetry streams — runtime lifecycle
// events, completed-job span records, decision-audit entries and
// periodic metric snapshots — as length-prefixed binary frames in
// fixed-size segments, so "what happened in the 30 seconds before the
// backlog spiked?" has an answer after the fact, not just at scrape
// time.
//
// The design inherits the repository's two standing disciplines:
//
//   - Zero allocations on the hot append path. Every segment buffer is
//     preallocated; an append encodes its frame directly into the active
//     buffer under a short mutex. Sealing a full segment recycles the
//     oldest retained buffer instead of allocating a new one, so even
//     rotation is allocation-free at steady state (TestAppendAllocationFree
//     pins this, rotations included). Only optional disk persistence and
//     oversized blob frames touch the allocator.
//
//   - No clock, no randomness. The recorder never reads time: every
//     timestamp in a frame comes from the caller (the runtime's
//     pluggable clock, the audit's caller-supplied wall time). Under the
//     virtual clock a live run therefore journals a byte-identical
//     recording on every execution — the conformance suite extends the
//     PR-3/PR-7 bit-for-bit contract to flight-recorder output.
//
// Wire format (all integers little-endian):
//
//	frame    := type:u8 len:u32 payload[len]
//	segment  := segmentFrame frame*          (each segment starts with its header frame)
//	recording:= segment*                     (ascending segment sequence numbers)
//
// A recording is self-delimiting: Parse walks frames from any segment
// boundary, so a snapshot whose oldest segments were dropped (the ring
// is bounded) is still readable — the FrameSegment sequence numbers make
// the truncation visible.
package flight

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
)

// Frame types.
const (
	// FrameSegment opens every segment: payload is the segment's u64
	// sequence number (0-based, monotonically increasing per recorder).
	FrameSegment byte = 0x01
	// FrameMeta is a caller-supplied blob (conventionally JSON describing
	// the recording: policy, platform, clock scale). The recorder never
	// generates meta content itself, which is what keeps recorder-emitted
	// bytes deterministic.
	FrameMeta byte = 0x02
	// FrameEvent is one runtime lifecycle event on one shard.
	FrameEvent byte = 0x03
	// FrameSpan is one completed job's schedule record on one shard — the
	// four lifecycle stages in timestamp form.
	FrameSpan byte = 0x04
	// FrameDecision is one decision-audit entry (placement, steal plan or
	// executed migration).
	FrameDecision byte = 0x05
	// FrameMetrics is a periodic metrics snapshot blob (the registry's
	// /debug/vars JSON).
	FrameMetrics byte = 0x06
)

// Fixed payload sizes.
const (
	frameHeaderLen    = 5  // type:u8 len:u32
	segmentPayloadLen = 8  // seq:u64
	eventPayloadLen   = 21 // shard:u32 kind:u8 task:i32 slave:i32 t:f64
	spanPayloadLen    = 52 // shard:u32 job:i32 slave:i32 release,sendstart,arrive,start,complete:f64
)

// Decision kind wire codes (obs.Decision.Kind strings).
const (
	kindCodeOther   byte = 0
	kindCodePlace   byte = 1
	kindCodeSteal   byte = 2
	kindCodeMigrate byte = 3
)

// Config describes one recorder.
type Config struct {
	// Dir, when non-empty, persists sealed segments as seg-NNNNNNNN.flight
	// files (pre-existing segment files are removed at construction — a
	// recording directory holds exactly one run). Empty keeps the
	// recording in memory only; Snapshot still serves it.
	Dir string
	// SegmentBytes is the rotation threshold: a frame that would push the
	// active segment past this many bytes seals it first. 0 means 1 MiB;
	// the minimum is 1024.
	SegmentBytes int
	// MaxSegments bounds how many sealed segments are retained (in memory
	// and, with Dir set, on disk); the oldest is dropped — and counted in
	// Stats.SegmentsDropped — when a new seal exceeds the bound. 0 means
	// 8; the minimum is 1.
	MaxSegments int
}

// sealedSeg is one full, immutable segment retained in the ring.
type sealedSeg struct {
	seq uint64
	buf []byte
}

// Recorder is the journaling engine. All methods are safe for
// concurrent use; the append methods are allocation-free (the CI
// benchmark gate pins this).
type Recorder struct {
	mu       sync.Mutex
	dir      string
	segBytes int
	maxSegs  int

	active []byte      // current segment, starts with its FrameSegment header
	seq    uint64      // active segment's sequence number
	ring   []sealedSeg // retained sealed segments, oldest first
	free   [][]byte    // recycled segment buffers (len 0, cap segBytes)

	frames      uint64
	bytes       uint64
	segsDropped uint64
	closed      bool
	diskErr     error
}

// New builds a recorder (creating Config.Dir if needed) and opens its
// first segment.
func New(cfg Config) (*Recorder, error) {
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = 1 << 20
	}
	if cfg.SegmentBytes < 1024 {
		cfg.SegmentBytes = 1024
	}
	if cfg.MaxSegments == 0 {
		cfg.MaxSegments = 8
	}
	if cfg.MaxSegments < 1 {
		cfg.MaxSegments = 1
	}
	r := &Recorder{
		dir:      cfg.Dir,
		segBytes: cfg.SegmentBytes,
		maxSegs:  cfg.MaxSegments,
		ring:     make([]sealedSeg, 0, cfg.MaxSegments),
		free:     make([][]byte, 0, 1),
	}
	if r.dir != "" {
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return nil, fmt.Errorf("flight: %w", err)
		}
		old, err := filepath.Glob(filepath.Join(r.dir, "seg-*.flight"))
		if err != nil {
			return nil, fmt.Errorf("flight: %w", err)
		}
		for _, f := range old {
			if err := os.Remove(f); err != nil {
				return nil, fmt.Errorf("flight: %w", err)
			}
		}
	}
	r.startSegment()
	return r, nil
}

// startSegment opens the active segment for r.seq, reusing a recycled
// buffer when one is available. Caller holds r.mu (or is New).
func (r *Recorder) startSegment() {
	var buf []byte
	if n := len(r.free); n > 0 {
		buf = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		buf = make([]byte, 0, r.segBytes)
	}
	buf = append(buf, FrameSegment)
	buf = putU32(buf, segmentPayloadLen)
	buf = putU64(buf, r.seq)
	r.active = buf
}

// seal closes the active segment into the ring (and onto disk, when
// persisting), dropping — and recycling — the oldest retained segment
// past MaxSegments. Caller holds r.mu.
func (r *Recorder) seal() {
	sealed := sealedSeg{seq: r.seq, buf: r.active}
	if r.dir != "" {
		if err := os.WriteFile(r.segPath(sealed.seq), sealed.buf, 0o644); err != nil {
			r.diskErr = err
		}
	}
	r.ring = append(r.ring, sealed)
	if len(r.ring) > r.maxSegs {
		old := r.ring[0]
		copy(r.ring, r.ring[1:])
		r.ring = r.ring[:len(r.ring)-1]
		r.segsDropped++
		if r.dir != "" {
			if err := os.Remove(r.segPath(old.seq)); err != nil {
				r.diskErr = err
			}
		}
		r.free = append(r.free, old.buf[:0])
	}
	r.seq++
	r.startSegment()
}

func (r *Recorder) segPath(seq uint64) string {
	return filepath.Join(r.dir, fmt.Sprintf("seg-%08d.flight", seq))
}

// begin reserves one frame of payload size n: it seals the active
// segment when the frame would not fit, writes the frame header, and
// returns the buffer to append the payload to. finish must follow.
// Caller holds r.mu.
func (r *Recorder) begin(typ byte, n int) []byte {
	need := frameHeaderLen + n
	if len(r.active)+need > r.segBytes && len(r.active) > frameHeaderLen+segmentPayloadLen {
		r.seal()
	}
	if len(r.active)+need > cap(r.active) {
		// A single frame larger than a whole segment (an oversized blob):
		// grow the active buffer. Cold path; the fixed-size frames the hot
		// path appends always fit a fresh segment.
		grown := make([]byte, len(r.active), len(r.active)+need)
		copy(grown, r.active)
		r.active = grown
	}
	b := append(r.active, typ)
	return putU32(b, uint32(n))
}

// finish commits the frame begun by begin. Caller holds r.mu.
func (r *Recorder) finish(b []byte) {
	r.bytes += uint64(len(b) - len(r.active))
	r.active = b
	r.frames++
}

// Observe journals one lifecycle event and, when it completes job, the
// job's span frame from job.Record() — both in one critical section. It
// is the serving stack's per-event sink (cluster.Config.Observer hands it
// the tracker's post-event job) and emits exactly the bytes of AppendEvent
// followed, on EvCompleted, by AppendSpan. Allocation-free.
func (r *Recorder) Observe(shard int, ev live.Event, job live.JobInfo) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.putEvent(shard, ev)
	if ev.Kind == live.EvCompleted {
		r.putSpan(shard, job.Record())
	}
}

// AppendEvent journals one runtime lifecycle event. Allocation-free.
func (r *Recorder) AppendEvent(shard int, ev live.Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.putEvent(shard, ev)
	}
}

// AppendSpan journals one completed job's schedule record (its span in
// timestamp form). Allocation-free.
func (r *Recorder) AppendSpan(shard int, rec core.Record) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.putSpan(shard, rec)
	}
}

// putEvent encodes one event frame. Caller holds r.mu.
func (r *Recorder) putEvent(shard int, ev live.Event) {
	b := r.begin(FrameEvent, eventPayloadLen)
	b = putU32(b, uint32(int32(shard)))
	b = append(b, byte(ev.Kind))
	b = putU32(b, uint32(int32(ev.Task)))
	b = putU32(b, uint32(int32(ev.Slave)))
	b = putU64(b, math.Float64bits(ev.T))
	r.finish(b)
}

// putSpan encodes one span frame. Caller holds r.mu.
func (r *Recorder) putSpan(shard int, rec core.Record) {
	b := r.begin(FrameSpan, spanPayloadLen)
	b = putU32(b, uint32(int32(shard)))
	b = putU32(b, uint32(int32(rec.Task)))
	b = putU32(b, uint32(int32(rec.Slave)))
	b = putU64(b, math.Float64bits(rec.Release))
	b = putU64(b, math.Float64bits(rec.SendStart))
	b = putU64(b, math.Float64bits(rec.Arrive))
	b = putU64(b, math.Float64bits(rec.Start))
	b = putU64(b, math.Float64bits(rec.Complete))
	r.finish(b)
}

// AppendDecision journals one decision-audit entry. The policy name is
// truncated to 255 bytes; scores are journaled in full. Allocation-free
// (the scores are copied byte-wise into the segment, never boxed).
func (r *Recorder) AppendDecision(d obs.Decision) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	policy := d.Policy
	if len(policy) > 255 {
		policy = policy[:255]
	}
	n := 2 + len(policy) + 8 + 8 + 5*4 + 8 + 2 + 8*len(d.Scores)
	b := r.begin(FrameDecision, n)
	b = append(b, kindCode(d.Kind), byte(len(policy)))
	b = append(b, policy...)
	b = putU64(b, d.Seq)
	b = putU64(b, uint64(d.Wall))
	b = putU32(b, uint32(int32(d.Job)))
	b = putU32(b, uint32(int32(d.From)))
	b = putU32(b, uint32(int32(d.To)))
	b = putU32(b, uint32(int32(d.Planned)))
	b = putU32(b, uint32(int32(d.N)))
	b = putU64(b, math.Float64bits(d.LatencySeconds))
	b = putU16(b, uint16(len(d.Scores)))
	for _, s := range d.Scores {
		b = putU64(b, math.Float64bits(s))
	}
	r.finish(b)
}

// AppendMeta journals a caller-supplied description blob (conventionally
// JSON). Blob appends may allocate when the blob exceeds a segment.
func (r *Recorder) AppendMeta(blob []byte) { r.appendBlob(FrameMeta, blob) }

// AppendMetrics journals one metrics snapshot blob (the registry's JSON
// exposition). Called off the hot path, on the snapshot ticker.
func (r *Recorder) AppendMetrics(blob []byte) { r.appendBlob(FrameMetrics, blob) }

func (r *Recorder) appendBlob(typ byte, blob []byte) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	b := r.begin(typ, len(blob))
	b = append(b, blob...)
	r.finish(b)
}

// Snapshot returns the full retained recording — sealed segments oldest
// first, then the active segment — as one parseable byte stream. This is
// what GET /v1/flight serves and what the conformance suite compares.
func (r *Recorder) Snapshot() []byte {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.active)
	for _, s := range r.ring {
		n += len(s.buf)
	}
	out := make([]byte, 0, n)
	for _, s := range r.ring {
		out = append(out, s.buf...)
	}
	return append(out, r.active...)
}

// Stats is the recorder's own accounting, surfaced in GET /v1/stats so
// segment drops (silent truncation of history) are visible.
type Stats struct {
	// Frames and Bytes count everything appended since construction,
	// including frames whose segments have since been dropped.
	Frames uint64 `json:"frames"`
	Bytes  uint64 `json:"bytes"`
	// Segments is the number of retained segments, the active one
	// included; SegmentsDropped counts sealed segments the bounded ring
	// has discarded.
	Segments        int    `json:"segments"`
	SegmentsDropped uint64 `json:"segments_dropped"`
	// DiskError is the most recent persistence failure ("" when none):
	// the recorder keeps journaling in memory through disk errors.
	DiskError string `json:"disk_error,omitempty"`
}

// Stats returns the current accounting.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{
		Frames:          r.frames,
		Bytes:           r.bytes,
		Segments:        len(r.ring) + 1,
		SegmentsDropped: r.segsDropped,
	}
	if r.diskErr != nil {
		st.DiskError = r.diskErr.Error()
	}
	return st
}

// Close flushes the active segment (to disk when persisting) and stops
// accepting appends. Snapshot remains valid. Returns the last disk
// error, if any.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return r.diskErr
	}
	r.closed = true
	if r.dir != "" {
		if err := os.WriteFile(r.segPath(r.seq), r.active, 0o644); err != nil {
			r.diskErr = err
		}
	}
	return r.diskErr
}

func kindCode(kind string) byte {
	switch kind {
	case obs.DecisionPlace:
		return kindCodePlace
	case obs.DecisionSteal:
		return kindCodeSteal
	case obs.DecisionMigrate:
		return kindCodeMigrate
	}
	return kindCodeOther
}

func kindName(code byte) string {
	switch code {
	case kindCodePlace:
		return obs.DecisionPlace
	case kindCodeSteal:
		return obs.DecisionSteal
	case kindCodeMigrate:
		return obs.DecisionMigrate
	}
	return "other"
}

// Little-endian append helpers: appends within the preallocated segment
// capacity, so the hot path never reslices through the allocator.

func putU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func putU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func putU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
