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
//     preallocated, and so is every shard's lane: Observe encodes its
//     frames into the lane of the shard it is called for, which has one
//     writer (the shard's master) and no lock. A full lane flushes its
//     frames into the active segment under the shared lock, once per
//     lane's worth of frames rather than once per event; readers flush
//     every lane before they read. Sealing a full segment recycles the
//     oldest retained buffer instead of allocating a new one, so even
//     rotation is allocation-free at steady state (TestAppendAllocationFree
//     pins this, lane flushes and rotations included). Only oversized
//     blob frames, and a disk writer that falls behind, touch the
//     allocator.
//
//   - No master touches the disk. With Config.Dir set, a sealed segment
//     is handed to one writer goroutine through a bounded queue; the
//     writer alone writes segment files and unlinks those past the
//     retention bound. A full queue drops that segment's file and counts
//     it (Stats.SegmentsUnwritten): the journal reports its own losses.
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
// Each shard's frames keep their order; frames of different shards
// interleave per flushed lane, which was never deterministic. A recording
// is self-delimiting: Parse walks frames from any segment
// boundary, so a snapshot whose oldest segments were dropped (the ring
// is bounded) is still readable — the FrameSegment sequence numbers make
// the truncation visible.
package flight

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

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

// laneBytes is the size of each shard's staging lane: about 300 event
// frames, so a master takes the shared lock once per ~300 events. A lane
// holds kilobytes, never a segment.
const laneBytes = 8 << 10

// maxLanes is how many shards get a lane. Observe for a shard index
// outside [0, maxLanes) journals straight into the shared stream.
const maxLanes = 64

// writeQueue is how many sealed segments may wait for the disk writer:
// the writer may fall four segments (4 MiB at the default size) behind
// the masters before a segment's file is dropped, and at most that many
// buffers beyond the ring wait for it.
const writeQueue = 4

// lane is one shard's staging buffer of whole, encoded frames. It has one
// writer, the shard's master, and no lock: the master encodes frames past
// the published end and then publishes the new end. Readers move the
// published frames into the shared stream under Recorder.mu and advance
// flushed; only the master, also under Recorder.mu, rewinds the lane.
type lane struct {
	pub     atomic.Uint64 // staged frames<<32 | staged bytes
	buf     []byte        // len laneBytes
	flushed uint64        // the prefix of pub already in the shared stream; under Recorder.mu
	_       [64]byte      // keeps two lanes off one cache line
}

// sealedSeg is one full, immutable segment retained in the ring.
type sealedSeg struct {
	seq    uint64
	buf    []byte
	queued bool // handed to the disk writer, which may still read buf
}

// Recorder is the journaling engine. All methods are safe for
// concurrent use, except that Observe calls for one shard must not
// overlap; the append methods are allocation-free (TestAppendAllocationFree
// pins this).
type Recorder struct {
	lanes  [maxLanes]atomic.Pointer[lane] // by shard index, each built once under mu
	closed atomic.Bool                    // set under mu

	mu       sync.Mutex
	dir      string
	segBytes int
	maxSegs  int

	active []byte      // current segment, starts with its FrameSegment header
	seq    uint64      // active segment's sequence number
	ring   []sealedSeg // retained sealed segments, oldest first
	free   [][]byte    // recycled segment buffers (len 0, cap segBytes)

	// The disk writer (nil channels without Dir): seal queues sealed
	// segments on writes; the writer advances written past each one it is
	// done with. held keeps segments that left the ring while still
	// queued, oldest first, until the writer is done with them.
	writes     chan sealedSeg
	writerDone chan struct{}
	written    uint64
	held       []sealedSeg

	frames        uint64
	bytes         uint64
	locks         uint64 // acquisitions of mu
	segsDropped   uint64
	segsUnwritten uint64
	diskErr       error
}

// parkWriter, when a test sets it before New, parks the disk writer
// before each segment it takes until the channel is closed.
var parkWriter chan struct{}

// New builds a recorder (creating Config.Dir if needed) and opens its
// first segment. With Dir set it starts the disk writer, which Close
// stops.
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
		// Segments the writer holds come back to free, at most
		// writeQueue queued plus the one being written.
		r.free = make([][]byte, 0, writeQueue+2)
		r.held = make([]sealedSeg, 0, writeQueue+1)
		r.writes = make(chan sealedSeg, writeQueue)
		r.writerDone = make(chan struct{})
		go r.writeSegments(parkWriter)
	}
	r.startSegment()
	return r, nil
}

// lock takes the shared lock and counts the acquisition.
func (r *Recorder) lock() {
	r.mu.Lock()
	r.locks++
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

// seal closes the active segment into the ring, dropping the oldest
// retained segment past MaxSegments and recycling its buffer. With Dir
// set it queues the segment for the disk writer without waiting: a full
// queue drops the segment's file and counts it. A dropped segment the
// writer may still be reading is held until it is done. Caller holds
// r.mu.
func (r *Recorder) seal() {
	sealed := sealedSeg{seq: r.seq, buf: r.active}
	if r.writes != nil {
		select {
		case r.writes <- sealed:
			sealed.queued = true
		default:
			r.segsUnwritten++
		}
	}
	r.ring = append(r.ring, sealed)
	if len(r.ring) > r.maxSegs {
		old := r.ring[0]
		copy(r.ring, r.ring[1:])
		r.ring = r.ring[:len(r.ring)-1]
		r.segsDropped++
		if old.queued && old.seq >= r.written {
			r.held = append(r.held, old)
		} else {
			r.free = append(r.free, old.buf[:0])
		}
	}
	r.seq++
	r.startSegment()
}

// writeSegments is the disk writer: it writes each queued segment to its
// file, unlinks files past the retention bound, and hands back the
// buffers of dropped segments it is done with. It exits when Close
// closes the queue.
func (r *Recorder) writeSegments(park chan struct{}) {
	defer close(r.writerDone)
	var onDisk []uint64 // written files, oldest first
	for {
		if park != nil {
			<-park
		}
		s, ok := <-r.writes
		if !ok {
			return
		}
		err := os.WriteFile(r.segPath(s.seq), s.buf, 0o644)
		if err == nil {
			onDisk = append(onDisk, s.seq)
		}
		for len(onDisk) > 0 && onDisk[0]+uint64(r.maxSegs) <= s.seq {
			if rerr := os.Remove(r.segPath(onDisk[0])); rerr != nil {
				err = rerr
			}
			onDisk = onDisk[1:]
		}
		r.lock()
		if err != nil {
			r.diskErr = err
		}
		r.written = s.seq + 1
		n := 0
		for n < len(r.held) && r.held[n].seq < r.written {
			r.free = append(r.free, r.held[n].buf[:0])
			n++
		}
		r.held = r.held[:copy(r.held, r.held[n:])]
		r.mu.Unlock()
	}
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

// lane returns the staging lane of shard, creating it on first use, or
// nil for a shard index without one.
func (r *Recorder) lane(shard int) *lane {
	if shard < 0 || shard >= maxLanes {
		return nil
	}
	slot := &r.lanes[shard]
	if l := slot.Load(); l != nil {
		return l
	}
	r.lock()
	defer r.mu.Unlock()
	if slot.Load() == nil {
		slot.Store(&lane{buf: make([]byte, laneBytes)})
	}
	return slot.Load()
}

// flush moves l's staged frames up to the published end upto into the
// shared stream. A run of frames that fits the active segment is copied
// whole; one that crosses a segment boundary goes one frame at a time
// through begin and finish. Either way segment boundaries, sequence
// numbers and the frame and byte counts come out exactly as if each frame
// had been appended directly. Caller holds r.mu.
func (r *Recorder) flush(l *lane, upto uint64) {
	staged := l.buf[uint32(l.flushed):uint32(upto)]
	if len(r.active)+len(staged) <= r.segBytes {
		r.active = append(r.active, staged...)
		r.bytes += uint64(len(staged))
		r.frames += upto>>32 - l.flushed>>32
	} else {
		for off := 0; off < len(staged); {
			typ := staged[off]
			n := int(binary.LittleEndian.Uint32(staged[off+1:]))
			off += frameHeaderLen
			b := r.begin(typ, n)
			r.finish(append(b, staged[off:off+n]...))
			off += n
		}
	}
	l.flushed = upto
}

// lockFlushed takes the shared lock and, unless the recorder is closed,
// flushes every lane: it returns holding r.mu, with every frame
// journaled so far in the shared stream.
func (r *Recorder) lockFlushed() {
	r.lock()
	if r.closed.Load() {
		return
	}
	for i := range r.lanes {
		if l := r.lanes[i].Load(); l != nil {
			r.flush(l, l.pub.Load())
		}
	}
}

// Observe journals one lifecycle event and, when it completes job, the
// job's span frame from job.Record() — the bytes of AppendEvent followed,
// on EvCompleted, by AppendSpan. It is the serving stack's per-event sink
// (schedd's cluster.Config.Observer hands it the tracker's post-event job
// at a completion).
//
// The frames go into shard's lane without a lock. When they would not
// fit, the lane first flushes into the shared stream and rewinds, which
// is the only time Observe takes the shared lock. Each shard's frames
// therefore keep their order, while frames of different shards
// interleave per flushed lane rather than per event. Calls for one shard
// must not overlap — the lane's one writer is the shard's master — while
// calls for different shards may. Allocation-free.
func (r *Recorder) Observe(shard int, ev live.Event, job live.JobInfo) {
	if r == nil {
		return
	}
	l := r.lane(shard)
	if l == nil {
		r.AppendEvent(shard, ev)
		if ev.Kind == live.EvCompleted {
			r.AppendSpan(shard, job.Record())
		}
		return
	}
	if r.closed.Load() {
		return
	}
	pub := l.pub.Load()
	need := frameHeaderLen + eventPayloadLen
	if ev.Kind == live.EvCompleted {
		need += frameHeaderLen + spanPayloadLen
	}
	if int(uint32(pub))+need > len(l.buf) {
		r.lock()
		if !r.closed.Load() {
			r.flush(l, pub)
		}
		pub, l.flushed = 0, 0
		l.pub.Store(0)
		r.mu.Unlock()
	}
	b := append(l.buf[:uint32(pub)], FrameEvent)
	b = eventPayload(putU32(b, eventPayloadLen), shard, ev)
	frames := pub>>32 + 1
	if ev.Kind == live.EvCompleted {
		b = append(b, FrameSpan)
		b = spanPayload(putU32(b, spanPayloadLen), shard, job.Record())
		frames++
	}
	l.pub.Store(frames<<32 | uint64(len(b)))
}

// AppendEvent journals one runtime lifecycle event straight into the
// shared stream. Allocation-free.
func (r *Recorder) AppendEvent(shard int, ev live.Event) {
	if r == nil {
		return
	}
	r.lock()
	defer r.mu.Unlock()
	if !r.closed.Load() {
		r.finish(eventPayload(r.begin(FrameEvent, eventPayloadLen), shard, ev))
	}
}

// AppendSpan journals one completed job's schedule record (its span in
// timestamp form) straight into the shared stream. Allocation-free.
func (r *Recorder) AppendSpan(shard int, rec core.Record) {
	if r == nil {
		return
	}
	r.lock()
	defer r.mu.Unlock()
	if !r.closed.Load() {
		r.finish(spanPayload(r.begin(FrameSpan, spanPayloadLen), shard, rec))
	}
}

// eventPayload appends one event frame's payload to b.
func eventPayload(b []byte, shard int, ev live.Event) []byte {
	b = putU32(b, uint32(int32(shard)))
	b = append(b, byte(ev.Kind))
	b = putU32(b, uint32(int32(ev.Task)))
	b = putU32(b, uint32(int32(ev.Slave)))
	return putU64(b, math.Float64bits(ev.T))
}

// spanPayload appends one span frame's payload to b.
func spanPayload(b []byte, shard int, rec core.Record) []byte {
	b = putU32(b, uint32(int32(shard)))
	b = putU32(b, uint32(int32(rec.Task)))
	b = putU32(b, uint32(int32(rec.Slave)))
	b = putU64(b, math.Float64bits(rec.Release))
	b = putU64(b, math.Float64bits(rec.SendStart))
	b = putU64(b, math.Float64bits(rec.Arrive))
	b = putU64(b, math.Float64bits(rec.Start))
	return putU64(b, math.Float64bits(rec.Complete))
}

// AppendDecision journals one decision-audit entry. The policy name is
// truncated to 255 bytes; scores are journaled in full. Allocation-free
// (the scores are copied byte-wise into the segment, never boxed).
func (r *Recorder) AppendDecision(d obs.Decision) {
	if r == nil {
		return
	}
	r.lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
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
	r.lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return
	}
	b := r.begin(typ, len(blob))
	b = append(b, blob...)
	r.finish(b)
}

// Snapshot returns the full retained recording — sealed segments oldest
// first, then the active segment — as one parseable byte stream, every
// lane flushed first. This is what GET /v1/flight serves and what the
// conformance suite compares.
func (r *Recorder) Snapshot() []byte {
	if r == nil {
		return nil
	}
	r.lockFlushed()
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
	// SegmentsUnwritten counts sealed segments whose file was never
	// written because the disk writer's queue was full (0 without Dir).
	SegmentsUnwritten uint64 `json:"segments_unwritten"`
	// DiskError is the most recent persistence failure ("" when none):
	// the recorder keeps journaling in memory through disk errors.
	DiskError string `json:"disk_error,omitempty"`
}

// Stats returns the current accounting, every lane flushed first so the
// counts are exact.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.lockFlushed()
	defer r.mu.Unlock()
	st := Stats{
		Frames:            r.frames,
		Bytes:             r.bytes,
		Segments:          len(r.ring) + 1,
		SegmentsDropped:   r.segsDropped,
		SegmentsUnwritten: r.segsUnwritten,
	}
	if r.diskErr != nil {
		st.DiskError = r.diskErr.Error()
	}
	return st
}

// Close stops accepting appends, flushes the lanes, waits for the disk
// writer to drain its queue and then writes the active segment (when
// persisting). Snapshot remains valid. Returns the last disk error, if
// any.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	// The last flush: a frame Observe publishes after it stays in its
	// lane, as an append after Close is dropped.
	r.lockFlushed()
	if r.closed.Load() {
		defer r.mu.Unlock()
		return r.diskErr
	}
	r.closed.Store(true)
	if r.writes != nil {
		close(r.writes)
		r.mu.Unlock()
		<-r.writerDone
		r.lock()
	}
	defer r.mu.Unlock()
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
