package flight

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
)

func mustNew(t *testing.T, cfg Config) *Recorder {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRoundTrip(t *testing.T) {
	r := mustNew(t, Config{})
	ev := live.Event{T: 1.5, Kind: live.EvSent, Task: 7, Slave: 2}
	rec := core.Record{Task: 7, Slave: 2, Release: 0.5, SendStart: 1.5, Arrive: 2, Start: 2, Complete: 5.25}
	d := obs.Decision{
		Seq: 3, Wall: 1234567890, Kind: obs.DecisionPlace, Policy: "least-loaded",
		Job: 7, From: -1, To: 1, Scores: []float64{2, 1, -1},
	}
	r.AppendMeta([]byte(`{"policy":"LS"}`))
	r.AppendEvent(1, ev)
	r.AppendSpan(1, rec)
	r.AppendDecision(d)
	r.AppendMetrics([]byte(`{"up":1}`))

	parsed, err := Parse(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got := parsed.Segments(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("segments = %v, want [0]", got)
	}
	events := parsed.Events()
	if len(events) != 1 || events[0].Shard != 1 || events[0].Event != ev {
		t.Fatalf("events = %+v", events)
	}
	spans := parsed.Spans()
	if len(spans) != 1 || spans[0].Shard != 1 || spans[0].Record != rec {
		t.Fatalf("spans = %+v", spans)
	}
	ds := parsed.Decisions()
	if len(ds) != 1 {
		t.Fatalf("decisions = %+v", ds)
	}
	got := ds[0]
	if got.Kind != d.Kind || got.Policy != d.Policy || got.Seq != d.Seq ||
		got.Wall != d.Wall || got.Job != d.Job || got.From != d.From || got.To != d.To {
		t.Fatalf("decision = %+v, want %+v", got, d)
	}
	if len(got.Scores) != 3 || got.Scores[0] != 2 || got.Scores[2] != -1 {
		t.Fatalf("scores = %v", got.Scores)
	}
	if m := parsed.Meta(); len(m) != 1 || string(m[0]) != `{"policy":"LS"}` {
		t.Fatalf("meta = %q", m)
	}
	if m := parsed.MetricsSnapshots(); len(m) != 1 || string(m[0]) != `{"up":1}` {
		t.Fatalf("metrics = %q", m)
	}
	st := r.Stats()
	if st.Frames != 5 || st.Segments != 1 || st.SegmentsDropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRotationAndDrops(t *testing.T) {
	r := mustNew(t, Config{SegmentBytes: 1024, MaxSegments: 2})
	// Each event frame is frameHeaderLen+eventPayloadLen = 26 bytes; a
	// 1024-byte segment holds ~38 after its header. Append enough to
	// rotate several times.
	for i := 0; i < 500; i++ {
		r.AppendEvent(0, live.Event{T: float64(i), Kind: live.EvSubmitted, Task: i, Slave: -1})
	}
	st := r.Stats()
	if st.SegmentsDropped == 0 {
		t.Fatalf("expected segment drops, stats = %+v", st)
	}
	if st.Segments != 3 { // 2 sealed + active
		t.Fatalf("segments = %d, want 3", st.Segments)
	}
	parsed, err := Parse(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	segs := parsed.Segments()
	if len(segs) != 3 {
		t.Fatalf("parsed segments = %v", segs)
	}
	// Retained segments are contiguous and end at the active one.
	for i := 1; i < len(segs); i++ {
		if segs[i] != segs[i-1]+1 {
			t.Fatalf("segment seqs not contiguous: %v", segs)
		}
	}
	if segs[0] == 0 {
		t.Fatalf("oldest segments should have been dropped: %v", segs)
	}
	// The retained events are a suffix of the appended stream.
	events := parsed.Events()
	if len(events) == 0 {
		t.Fatal("no events retained")
	}
	last := events[len(events)-1]
	if last.Event.Task != 499 {
		t.Fatalf("newest retained event = %+v", last)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Event.Task != events[i-1].Event.Task+1 {
			t.Fatalf("retained events not contiguous at %d: %+v", i, events[i])
		}
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	// Leftover files from a previous run are cleared at construction.
	stale := filepath.Join(dir, "seg-99999999.flight")
	if err := os.WriteFile(stale, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustNew(t, Config{Dir: dir, SegmentBytes: 1024, MaxSegments: 2})
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale segment not removed: %v", err)
	}
	for i := 0; i < 200; i++ {
		r.AppendEvent(0, live.Event{T: float64(i), Kind: live.EvSubmitted, Task: i, Slave: -1})
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Appends after Close are dropped, not corrupted.
	r.AppendEvent(0, live.Event{Task: 999})

	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.flight"))
	// MaxSegments sealed files at most, plus the Close-flushed active one.
	if len(files) < 2 || len(files) > 3 {
		t.Fatalf("segment files = %v", files)
	}
	parsed, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	events := parsed.Events()
	if len(events) == 0 || events[len(events)-1].Event.Task != 199 {
		t.Fatalf("disk recording ends at %+v", events[len(events)-1])
	}
	// The on-disk recording equals the in-memory snapshot frame for frame.
	mem, err := Parse(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(mem.Frames) != len(parsed.Frames) {
		t.Fatalf("disk frames %d != memory frames %d", len(parsed.Frames), len(mem.Frames))
	}
}

func TestOversizedBlob(t *testing.T) {
	r := mustNew(t, Config{SegmentBytes: 1024, MaxSegments: 2})
	blob := []byte(strings.Repeat("x", 5000))
	r.AppendMeta(blob)
	r.AppendEvent(0, live.Event{T: 1, Kind: live.EvSubmitted, Task: 0, Slave: -1})
	parsed, err := Parse(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if m := parsed.Meta(); len(m) != 1 || !bytes.Equal(m[0], blob) {
		t.Fatalf("oversized blob not journaled intact (%d blobs)", len(m))
	}
	if ev := parsed.Events(); len(ev) != 1 {
		t.Fatalf("event after oversized blob lost: %+v", ev)
	}
}

// sampleRecording journals one frame of every type — the smallest
// recording that exercises every typed accessor — and returns its bytes.
func sampleRecording(t testing.TB) []byte {
	t.Helper()
	r, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	r.AppendMeta([]byte(`{"policy":"LS"}`))
	r.AppendEvent(1, live.Event{T: 1.5, Kind: live.EvSent, Task: 7, Slave: 2})
	r.AppendSpan(1, core.Record{Task: 7, Slave: 2, Release: 0.5, SendStart: 1.5, Arrive: 2, Start: 2, Complete: 5.25})
	r.AppendDecision(obs.Decision{Seq: 3, Wall: 1234567890, Kind: obs.DecisionPlace, Policy: "least-loaded",
		Job: 7, From: -1, To: 1, Scores: []float64{2, 1, -1}})
	r.AppendMetrics([]byte(`{"up":1}`))
	return r.Snapshot()
}

// decodeAll runs every typed accessor over a parsed recording: none may
// panic, whatever the frames hold.
func decodeAll(rec *Recording) {
	rec.Segments()
	rec.Events()
	rec.Spans()
	rec.Decisions()
	rec.Meta()
	rec.MetricsSnapshots()
}

// isFramePrefix reports whether got is a prefix of want, frame for frame.
func isFramePrefix(got, want []Frame) bool {
	if len(got) > len(want) {
		return false
	}
	for i, f := range got {
		if f.Type != want[i].Type || !bytes.Equal(f.Payload, want[i].Payload) {
			return false
		}
	}
	return true
}

// TestParseRejectsTruncation cuts a small recording at every byte
// offset: a cut inside a frame is an ErrTruncated error, and the frames
// that come back with it are exactly the complete ones before the cut.
func TestParseRejectsTruncation(t *testing.T) {
	snap := sampleRecording(t)
	full, err := Parse(snap)
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is the offset just past frame i.
	var ends []int
	off := 0
	for _, f := range full.Frames {
		off += frameHeaderLen + len(f.Payload)
		ends = append(ends, off)
	}
	for k := 0; k <= len(snap); k++ {
		whole := 0 // complete frames in snap[:k]
		for whole < len(ends) && ends[whole] <= k {
			whole++
		}
		atBoundary := k == 0 || (whole > 0 && ends[whole-1] == k)
		rec, err := Parse(snap[:k])
		if atBoundary != (err == nil) {
			t.Fatalf("cut at %d: err = %v, frame boundary = %v", k, err, atBoundary)
		}
		if err != nil && !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: error %v is not ErrTruncated", k, err)
		}
		if len(rec.Frames) != whole || !isFramePrefix(rec.Frames, full.Frames) {
			t.Fatalf("cut at %d: got %d frames, want the first %d", k, len(rec.Frames), whole)
		}
		decodeAll(rec)
	}
}

// TestReadDirTornSegment: a segment file torn mid-frame (what kill -9
// during a seal leaves) costs only its own tail — the files before and
// after it are read whole, and the error names the torn file.
func TestReadDirTornSegment(t *testing.T) {
	dir := t.TempDir()
	r := mustNew(t, Config{Dir: dir, SegmentBytes: 1024, MaxSegments: 8})
	for i := 0; i < 100; i++ {
		r.AppendEvent(0, live.Event{T: float64(i), Kind: live.EvSubmitted, Task: i, Slave: -1})
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.flight"))
	if len(files) < 3 {
		t.Fatalf("want at least 3 segment files, have %v", files)
	}
	torn := files[1]
	b, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, b[:len(b)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadDir(dir)
	if !errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), filepath.Base(torn)) {
		t.Fatalf("err = %v, want ErrTruncated naming %s", err, filepath.Base(torn))
	}
	// Exactly the torn file's last event is missing; later files survive.
	if got, want := len(rec.Events()), len(whole.Events())-1; got != want {
		t.Fatalf("events = %d, want %d", got, want)
	}
	if got, want := rec.Segments(), whole.Segments(); len(got) != len(want) {
		t.Fatalf("segments = %v, want %v", got, want)
	}
	if last := rec.Events()[len(rec.Events())-1]; last.Event.Task != 99 {
		t.Fatalf("newest event after the torn file lost: %+v", last)
	}
}

// FuzzParse: no input may panic Parse or a typed accessor, and every
// prefix of an input parses to a frame prefix of the whole — the
// valid-prefix contract a torn recording is read under.
func FuzzParse(f *testing.F) {
	f.Add(sampleRecording(f), uint16(40))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		full, _ := Parse(data)
		decodeAll(full)
		k := int(cut) % (len(data) + 1)
		part, _ := Parse(data[:k])
		decodeAll(part)
		if !isFramePrefix(part.Frames, full.Frames) {
			t.Fatalf("Parse(data[:%d]) has %d frames, not a prefix of Parse(data)'s %d", k, len(part.Frames), len(full.Frames))
		}
	})
}

// TestAppendAllocationFree pins the hot-path discipline: event, span
// and decision appends allocate nothing, segment rotation included — so
// the measured region must seal segments, not just fill one. Observe is
// held to the same floor through its lane, with lane flushes that seal
// and rotate segments inside the measured calls.
func TestAppendAllocationFree(t *testing.T) {
	r := mustNew(t, Config{SegmentBytes: 4096, MaxSegments: 2})
	// Warm the buffer pool: after MaxSegments+1 segments exist, sealing
	// recycles rather than allocates.
	for i := 0; i < 2000; i++ {
		r.AppendEvent(0, live.Event{T: float64(i), Kind: live.EvSubmitted, Task: i, Slave: -1})
	}
	sealed := func() int { st := r.Stats(); return st.Segments + int(st.SegmentsDropped) }
	before := sealed()
	d := obs.Decision{Kind: obs.DecisionPlace, Policy: "least-loaded", Job: 1, From: -1, To: 0, Scores: []float64{1, 2}}
	rec := core.Record{Task: 1, Slave: 0, Release: 1, SendStart: 2, Arrive: 3, Start: 3, Complete: 4}
	if n := testing.AllocsPerRun(200, func() {
		r.AppendEvent(0, live.Event{T: 1, Kind: live.EvSent, Task: 1, Slave: 0})
		r.AppendSpan(0, rec)
		r.AppendDecision(d)
	}); n != 0 {
		t.Fatalf("append path allocates %v times per op, want 0", n)
	}
	if rotated := sealed() - before; rotated < 2 {
		t.Fatalf("%d segment rotations inside the measured appends, want at least 2", rotated)
	}

	// The lane path: the first Observe on a shard builds its lane, so
	// warm it first.
	job := live.JobInfo{ID: 1, State: live.StateDone, Slave: 0, Submitted: 1, SendStart: 2, Arrive: 3, Start: 3, Complete: 4}
	r.Observe(1, live.Event{T: 1, Kind: live.EvSent, Task: 1, Slave: 0}, job)
	before, flushes := sealed(), r.sharedLocks()
	if n := testing.AllocsPerRun(200, func() {
		r.Observe(1, live.Event{T: 1, Kind: live.EvSent, Task: 1, Slave: 0}, job)
		r.Observe(1, live.Event{T: 2, Kind: live.EvCompleted, Task: 1, Slave: 0}, job)
	}); n != 0 {
		t.Fatalf("Observe allocates %v times per op, want 0", n)
	}
	if flushes = r.sharedLocks() - flushes; flushes < 2 {
		t.Fatalf("%d lane flushes inside the measured Observe calls, want at least 2", flushes)
	}
	if rotated := sealed() - before; rotated < 2 {
		t.Fatalf("%d segment rotations inside the measured Observe calls, want at least 2", rotated)
	}
}

// sharedLocks reads the shared-lock acquisition count without adding
// to it.
func (r *Recorder) sharedLocks() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.locks
}

// TestObserveSharesLockPerChunk counts what the lanes buy: four masters
// journaling concurrently, with a reader snapshotting beside them, take
// the shared lock once per flushed lane rather than once per event. The
// recording still holds each shard's frames in its own append order, and
// the frame count is exact.
func TestObserveSharesLockPerChunk(t *testing.T) {
	const shards, perShard, readers = 4, 250_000, 50
	// Segments enough to retain the whole run (about 37 MB), so the
	// final snapshot holds every frame.
	r := mustNew(t, Config{MaxSegments: 64})
	kind := func(task int) live.EventKind {
		if task%5 == 4 {
			return live.EvCompleted
		}
		return live.EvSent
	}
	// checkOrder walks a snapshot's frames: each shard's events must be
	// its appends from the first, in order, each completion directly
	// followed by its span. It returns how many events of each shard it
	// saw.
	checkOrder := func(snap []byte) ([shards]int, error) {
		var next [shards]int
		span := -1 // the task whose span must come next, if any
		for off := 0; off < len(snap); {
			typ, n := snap[off], int(binary.LittleEndian.Uint32(snap[off+1:]))
			p := snap[off+frameHeaderLen : off+frameHeaderLen+n]
			off += frameHeaderLen + n
			shard := int(binary.LittleEndian.Uint32(p))
			task := int(int32(binary.LittleEndian.Uint32(p[4:])))
			switch {
			case typ == FrameSegment: // a seal may fall between the two
			case span >= 0:
				if typ != FrameSpan || task != span {
					return next, fmt.Errorf("completion of task %d not followed by its span", span)
				}
				span = -1
			case typ == FrameEvent:
				task = int(int32(binary.LittleEndian.Uint32(p[5:])))
				if shard >= shards || task != next[shard] || live.EventKind(p[4]) != kind(task) {
					return next, fmt.Errorf("shard %d: event for task %d (kind %d), want task %d", shard, task, p[4], next[shard])
				}
				next[shard]++
				if kind(task) == live.EvCompleted {
					span = task
				}
			}
		}
		return next, nil
	}
	var readerDone sync.WaitGroup
	stop := make(chan struct{})
	var readErr error
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		for i := 0; i < readers; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := checkOrder(r.Snapshot()); err != nil {
				readErr = err
				return
			}
			r.Stats()
		}
	}()
	var masters sync.WaitGroup
	for s := 0; s < shards; s++ {
		masters.Add(1)
		go func(shard int) {
			defer masters.Done()
			for i := 0; i < perShard; i++ {
				job := live.JobInfo{ID: i, State: live.StateDone, Slave: 1, Complete: float64(i)}
				r.Observe(shard, live.Event{T: float64(i), Kind: kind(i), Task: i, Slave: 1}, job)
			}
		}(s)
	}
	masters.Wait()
	close(stop)
	readerDone.Wait()
	if readErr != nil {
		t.Fatalf("concurrent snapshot: %v", readErr)
	}

	const events = shards * perShard
	if locks := r.sharedLocks(); locks > events/128 {
		t.Fatalf("%d shared-lock acquisitions for %d events, want at most %d", locks, events, events/128)
	}
	seen, err := checkOrder(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for s, n := range seen {
		if n != perShard {
			t.Fatalf("shard %d: %d events in the recording, want %d", s, n, perShard)
		}
	}
	if st := r.Stats(); st.Frames != events+events/5 || st.SegmentsDropped != 0 {
		t.Fatalf("stats %+v, want %d frames (events and spans) and no drops", st, events+events/5)
	}
}

// TestObserveWithoutLane: a shard index with no lane journals straight
// into the shared stream, the same bytes as AppendEvent + AppendSpan.
func TestObserveWithoutLane(t *testing.T) {
	fused, paired := mustNew(t, Config{}), mustNew(t, Config{})
	job := live.JobInfo{ID: 3, State: live.StateDone, Slave: 1, Submitted: 1, SendStart: 1, Arrive: 2, Start: 2, Complete: 4}
	for _, shard := range []int{-1, maxLanes} {
		ev := live.Event{T: 4, Kind: live.EvCompleted, Task: 3, Slave: 1}
		fused.Observe(shard, ev, job)
		paired.AppendEvent(shard, ev)
		paired.AppendSpan(shard, job.Record())
	}
	if !bytes.Equal(fused.Snapshot(), paired.Snapshot()) {
		t.Fatal("Observe outside the lanes journals different bytes than AppendEvent + AppendSpan")
	}
	if fused.lane(-1) != nil || fused.lane(maxLanes) != nil {
		t.Fatal("a lane was built for a shard index outside the lanes")
	}
}

// segmentFiles splits a recording into its segments' bytes by sequence
// number.
func segmentFiles(t *testing.T, snap []byte) map[uint64][]byte {
	t.Helper()
	segs := map[uint64][]byte{}
	var seq uint64
	start := -1
	for off := 0; off < len(snap); {
		n := frameHeaderLen + int(binary.LittleEndian.Uint32(snap[off+1:]))
		if snap[off] == FrameSegment {
			if start >= 0 {
				segs[seq] = snap[start:off]
			}
			seq, start = binary.LittleEndian.Uint64(snap[off+frameHeaderLen:]), off
		}
		off += n
	}
	if start >= 0 {
		segs[seq] = snap[start:]
	}
	return segs
}

// TestParkedDiskStopsNoMaster parks the disk writer and keeps journaling
// across far more seals than its queue holds: Observe keeps returning,
// the segments with no room in the queue are counted as unwritten, and
// once the writer is released and Close returns, the directory holds
// exactly the segments that were queued (past the retention bound) and
// the active one, each byte-identical to the same segment of an
// unpersisted recording of the same calls. The ring drops segments the
// parked writer still holds, so their buffers must not be recycled
// before they are written.
func TestParkedDiskStopsNoMaster(t *testing.T) {
	const maxSegs = 2
	park := make(chan struct{})
	parkWriter = park
	dir := t.TempDir()
	disk := mustNew(t, Config{Dir: dir, SegmentBytes: 1024, MaxSegments: maxSegs})
	parkWriter = nil
	mem := mustNew(t, Config{SegmentBytes: 1024, MaxSegments: 1 << 10})
	job := live.JobInfo{ID: 0, State: live.StateDone, Slave: 1, Complete: 1}
	for i := 0; i < 5000; i++ {
		ev := live.Event{T: float64(i), Kind: live.EvSent, Task: i, Slave: 1}
		disk.Observe(i&3, ev, job)
		mem.Observe(i&3, ev, job)
	}
	st := disk.Stats()
	mem.Stats() // the same lane flush on both recorders
	sealed := uint64(st.Segments-1) + st.SegmentsDropped
	if sealed < 10*writeQueue {
		t.Fatalf("only %d seals; resize the test", sealed)
	}
	// The parked writer took nothing: exactly the queue's worth is
	// waiting, and every later seal found the queue full.
	if want := sealed - writeQueue; st.SegmentsUnwritten != want {
		t.Fatalf("SegmentsUnwritten = %d, want %d of %d seals", st.SegmentsUnwritten, want, sealed)
	}
	close(park)
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Queued were 0..writeQueue-1; the writer keeps the last maxSegs of
	// them, and Close writes the active segment.
	want := []uint64{writeQueue - 2, writeQueue - 1, sealed}
	if got := rec.Segments(); !slices.Equal(got, want) {
		t.Fatalf("segments on disk = %v, want %v", got, want)
	}
	whole := segmentFiles(t, mem.Snapshot())
	for _, seq := range want {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("seg-%08d.flight", seq)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, whole[seq]) {
			t.Fatalf("segment %d on disk differs from the recording's", seq)
		}
	}
}

// BenchmarkAppend measures the span and decision appends on a small
// memory-only ring that rotates throughout, warmed past its first full
// rotation so every seal recycles a buffer.
func BenchmarkAppend(b *testing.B) {
	warm := func(b *testing.B) *Recorder {
		r, err := New(Config{SegmentBytes: 64 << 10, MaxSegments: 4})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 20000; i++ {
			r.AppendEvent(0, live.Event{T: float64(i), Kind: live.EvSubmitted, Task: i, Slave: -1})
		}
		return r
	}
	b.Run("span", func(b *testing.B) {
		r := warm(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := float64(i)
			r.AppendSpan(i&3, core.Record{Task: core.TaskID(i), Slave: i & 7,
				Release: t, SendStart: t + 1, Arrive: t + 2, Start: t + 3, Complete: t + 4})
		}
	})
	b.Run("decision", func(b *testing.B) {
		r := warm(b)
		scores := []float64{1, 2, 3, 4}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.AppendDecision(obs.Decision{Kind: obs.DecisionPlace, Policy: "least-loaded",
				Seq: uint64(i), Job: i, From: -1, To: i & 3, Scores: scores})
		}
	})
}

// BenchmarkObserveParallel measures the per-event sink the way the
// serving stack drives it: one goroutine per shard, each journaling into
// its own lane, every fifth event a completion with its span.
func BenchmarkObserveParallel(b *testing.B) {
	r, err := New(Config{SegmentBytes: 64 << 10, MaxSegments: 4})
	if err != nil {
		b.Fatal(err)
	}
	var next atomic.Int32
	job := live.JobInfo{ID: 1, State: live.StateDone, Slave: 1, Complete: 1}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		shard := int(next.Add(1)-1) & 3
		for i := 0; pb.Next(); i++ {
			kind := live.EvSent
			if i%5 == 4 {
				kind = live.EvCompleted
			}
			r.Observe(shard, live.Event{T: float64(i), Kind: kind, Task: i, Slave: 1}, job)
		}
	})
}

// TestRecorderObserve pins the production sink against the two appends
// it fuses: the same frames, byte for byte — including when a segment
// rotation falls between a completion's event frame and its span frame.
func TestRecorderObserve(t *testing.T) {
	cfg := Config{SegmentBytes: 1024, MaxSegments: 4}
	fused, paired := mustNew(t, cfg), mustNew(t, cfg)
	tr := live.NewTracker()
	const jobs = 40
	rotatedInside := false
	for task := 0; task < jobs; task++ {
		t0 := float64(task)
		for _, ev := range []live.Event{
			{T: t0, Kind: live.EvSubmitted, Task: task, Slave: -1},
			{T: t0, Kind: live.EvSent, Task: task, Slave: 1},
			{T: t0 + 1, Kind: live.EvArrived, Task: task, Slave: 1},
			{T: t0 + 1, Kind: live.EvStarted, Task: task, Slave: 1},
			{T: t0 + 4, Kind: live.EvCompleted, Task: task, Slave: 1},
		} {
			job := tr.Observe(ev)
			fused.Observe(2, ev, job)
			paired.AppendEvent(2, ev)
			if ev.Kind == live.EvCompleted {
				before := paired.Stats().Segments + int(paired.Stats().SegmentsDropped)
				paired.AppendSpan(2, job.Record())
				if paired.Stats().Segments+int(paired.Stats().SegmentsDropped) != before {
					rotatedInside = true
				}
			}
		}
	}
	if !rotatedInside {
		t.Fatal("no rotation fell between an event frame and its span frame; resize the test")
	}
	if !bytes.Equal(fused.Snapshot(), paired.Snapshot()) {
		t.Fatal("Observe journals different bytes than AppendEvent + AppendSpan")
	}
	if fused.Stats() != paired.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", fused.Stats(), paired.Stats())
	}
	parsed, err := Parse(fused.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	spans := parsed.Spans()
	last := spans[len(spans)-1]
	want := core.Record{Task: jobs - 1, Slave: 1, Release: jobs - 1, SendStart: jobs - 1, Arrive: jobs, Start: jobs, Complete: jobs + 3}
	if last.Shard != 2 || last.Record != want {
		t.Fatalf("last span = %+v, want shard 2 record %+v", last, want)
	}
	// A closed or nil recorder drops the pair, as the appends do.
	if err := fused.Close(); err != nil {
		t.Fatal(err)
	}
	frames := fused.Stats().Frames
	fused.Observe(2, live.Event{T: 99, Kind: live.EvCompleted, Task: 0, Slave: 1}, live.JobInfo{})
	if fused.Stats().Frames != frames {
		t.Fatal("Observe journaled after Close")
	}
	(*Recorder)(nil).Observe(0, live.Event{}, live.JobInfo{})
}

func TestExporters(t *testing.T) {
	r := mustNew(t, Config{})
	r.AppendMeta([]byte(`{"policy":"LS"}`))
	recs := []core.Record{
		{Task: 0, Slave: 0, Release: 0, SendStart: 0, Arrive: 1, Start: 1, Complete: 3},
		{Task: 1, Slave: 1, Release: 0, SendStart: 1, Arrive: 3, Start: 3, Complete: 6},
	}
	for _, rec := range recs {
		r.AppendSpan(0, rec)
		r.AppendSpan(1, rec) // same shape on a second shard
	}
	r.AppendDecision(obs.Decision{Kind: obs.DecisionMigrate, From: 0, To: 1, Planned: 2, N: 1})
	parsed, err := Parse(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	var perfetto bytes.Buffer
	if err := WritePerfetto(&perfetto, parsed); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   float64  `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  int      `json:"pid"`
			Tid  int      `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(perfetto.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output is not JSON: %v", err)
	}
	var complete, meta int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Dur == nil || *ev.Dur < 0 || math.IsNaN(ev.Ts) {
				t.Fatalf("malformed complete event %+v", ev)
			}
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	// 4 spans × 4 stages, plus per-shard process/port/slave names.
	if complete != 16 {
		t.Fatalf("complete events = %d, want 16", complete)
	}
	if meta == 0 {
		t.Fatal("no track metadata emitted")
	}
	// Deterministic: exporting the same recording twice yields the same
	// bytes.
	var again bytes.Buffer
	if err := WritePerfetto(&again, parsed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(perfetto.Bytes(), again.Bytes()) {
		t.Fatal("perfetto export not deterministic")
	}

	var gantt bytes.Buffer
	if err := WriteGantt(&gantt, parsed, 60); err != nil {
		t.Fatal(err)
	}
	out := gantt.String()
	if !strings.Contains(out, "shard 0 (2 jobs)") || !strings.Contains(out, "shard 1 (2 jobs)") {
		t.Fatalf("gantt output missing shard sections:\n%s", out)
	}
	if !strings.Contains(out, "port") || !strings.Contains(out, "P2") {
		t.Fatalf("gantt output missing rows:\n%s", out)
	}

	var jsonl bytes.Buffer
	if err := WriteJSONL(&jsonl, parsed); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	// 1 segment + 1 meta + 4 spans + 1 decision.
	if len(lines) != 7 {
		t.Fatalf("jsonl lines = %d:\n%s", len(lines), jsonl.String())
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("jsonl line %d invalid: %s", i, line)
		}
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.AppendEvent(0, live.Event{})
	r.AppendSpan(0, core.Record{})
	r.AppendDecision(obs.Decision{})
	r.AppendMeta(nil)
	r.AppendMetrics(nil)
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil snapshot = %v", got)
	}
	if st := r.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
