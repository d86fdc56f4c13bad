package flight

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
)

// Frame is one decoded frame: its type byte and raw payload.
type Frame struct {
	Type    byte
	Payload []byte
}

// Event is one journaled runtime event with the shard it occurred on.
type Event struct {
	Shard int        `json:"shard"`
	Event live.Event `json:"event"`
}

// Span is one journaled completed-job record with its shard. The record
// decomposes into the four lifecycle stages via obs.FromRecord.
type Span struct {
	Shard  int         `json:"shard"`
	Record core.Record `json:"record"`
}

// Recording is a parsed flight recording: the raw frame sequence plus
// typed accessors. Frames appear in journal order; a recording whose
// oldest segments were dropped starts at a later segment boundary.
type Recording struct {
	Frames []Frame
}

// ErrTruncated marks a recording whose last frame is incomplete — what a
// killed writer or a partial copy leaves behind. Parse and ReadDir return
// it (wrapped) together with every complete frame they decoded.
var ErrTruncated = errors.New("flight: truncated recording")

// Parse decodes one recording byte stream (a Recorder.Snapshot, a GET
// /v1/flight body, or concatenated segment files). Frames are written
// whole, so a frame that runs past the end of the data means the tail
// was lost: Parse then returns the complete frames before it — a valid
// prefix of the recording — together with an ErrTruncated error.
func Parse(data []byte) (*Recording, error) {
	rec := &Recording{}
	for off := 0; off < len(data); {
		if len(data)-off < frameHeaderLen {
			return rec, fmt.Errorf("%w: frame header cut short at offset %d", ErrTruncated, off)
		}
		typ := data[off]
		n := int(binary.LittleEndian.Uint32(data[off+1 : off+5]))
		off += frameHeaderLen
		if n < 0 || n > len(data)-off {
			return rec, fmt.Errorf("%w: frame at offset %d claims %d payload bytes, %d remain", ErrTruncated, off-frameHeaderLen, n, len(data)-off)
		}
		rec.Frames = append(rec.Frames, Frame{Type: typ, Payload: data[off : off+n]})
		off += n
	}
	return rec, nil
}

// ReadDir parses a recording directory: every seg-*.flight file, in
// ascending segment order. Each file is parsed on its own, so a torn
// file (the one a kill -9 caught mid-write) costs only its own tail: the
// frames of every file, up to each one's last complete frame, come back
// together with the ErrTruncated errors naming the torn files.
func ReadDir(dir string) (*Recording, error) {
	files, err := filepath.Glob(filepath.Join(dir, "seg-*.flight"))
	if err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("flight: no seg-*.flight files in %s", dir)
	}
	sort.Strings(files)
	rec := &Recording{}
	var torn error
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("flight: %w", err)
		}
		seg, err := Parse(b)
		rec.Frames = append(rec.Frames, seg.Frames...)
		if err != nil {
			torn = errors.Join(torn, fmt.Errorf("%s: %w", filepath.Base(f), err))
		}
	}
	return rec, torn
}

// Segments returns the recording's segment sequence numbers, in order. A
// gap at the front relative to 0 means the bounded ring dropped history.
func (r *Recording) Segments() []uint64 {
	var out []uint64
	for _, f := range r.Frames {
		if f.Type == FrameSegment && len(f.Payload) == segmentPayloadLen {
			out = append(out, binary.LittleEndian.Uint64(f.Payload))
		}
	}
	return out
}

// Events decodes every event frame, in journal order.
func (r *Recording) Events() []Event {
	var out []Event
	for _, f := range r.Frames {
		if f.Type != FrameEvent || len(f.Payload) != eventPayloadLen {
			continue
		}
		p := f.Payload
		out = append(out, Event{
			Shard: int(int32(binary.LittleEndian.Uint32(p[0:4]))),
			Event: live.Event{
				Kind:  live.EventKind(p[4]),
				Task:  int(int32(binary.LittleEndian.Uint32(p[5:9]))),
				Slave: int(int32(binary.LittleEndian.Uint32(p[9:13]))),
				T:     math.Float64frombits(binary.LittleEndian.Uint64(p[13:21])),
			},
		})
	}
	return out
}

// Spans decodes every span frame, in journal order (completion order
// within a shard).
func (r *Recording) Spans() []Span {
	var out []Span
	for _, f := range r.Frames {
		if f.Type != FrameSpan || len(f.Payload) != spanPayloadLen {
			continue
		}
		p := f.Payload
		out = append(out, Span{
			Shard: int(int32(binary.LittleEndian.Uint32(p[0:4]))),
			Record: core.Record{
				Task:      core.TaskID(int32(binary.LittleEndian.Uint32(p[4:8]))),
				Slave:     int(int32(binary.LittleEndian.Uint32(p[8:12]))),
				Release:   math.Float64frombits(binary.LittleEndian.Uint64(p[12:20])),
				SendStart: math.Float64frombits(binary.LittleEndian.Uint64(p[20:28])),
				Arrive:    math.Float64frombits(binary.LittleEndian.Uint64(p[28:36])),
				Start:     math.Float64frombits(binary.LittleEndian.Uint64(p[36:44])),
				Complete:  math.Float64frombits(binary.LittleEndian.Uint64(p[44:52])),
			},
		})
	}
	return out
}

// Decisions decodes every decision frame, in journal order.
func (r *Recording) Decisions() []obs.Decision {
	var out []obs.Decision
	for _, f := range r.Frames {
		if f.Type != FrameDecision {
			continue
		}
		d, ok := decodeDecision(f.Payload)
		if !ok {
			continue
		}
		out = append(out, d)
	}
	return out
}

func decodeDecision(p []byte) (obs.Decision, bool) {
	if len(p) < 2 {
		return obs.Decision{}, false
	}
	code, plen := p[0], int(p[1])
	rest := p[2:]
	if len(rest) < plen+8+8+5*4+8+2 {
		return obs.Decision{}, false
	}
	d := obs.Decision{Kind: kindName(code), Policy: string(rest[:plen])}
	rest = rest[plen:]
	d.Seq = binary.LittleEndian.Uint64(rest[0:8])
	d.Wall = int64(binary.LittleEndian.Uint64(rest[8:16]))
	d.Job = int(int32(binary.LittleEndian.Uint32(rest[16:20])))
	d.From = int(int32(binary.LittleEndian.Uint32(rest[20:24])))
	d.To = int(int32(binary.LittleEndian.Uint32(rest[24:28])))
	d.Planned = int(int32(binary.LittleEndian.Uint32(rest[28:32])))
	d.N = int(int32(binary.LittleEndian.Uint32(rest[32:36])))
	d.LatencySeconds = math.Float64frombits(binary.LittleEndian.Uint64(rest[36:44]))
	ns := int(binary.LittleEndian.Uint16(rest[44:46]))
	rest = rest[46:]
	if len(rest) < 8*ns {
		return obs.Decision{}, false
	}
	if ns > 0 {
		d.Scores = make([]float64, ns)
		for i := range d.Scores {
			d.Scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i : 8*i+8]))
		}
	}
	return d, true
}

// Meta returns every caller-supplied meta blob, in journal order.
func (r *Recording) Meta() [][]byte {
	return r.blobs(FrameMeta)
}

// MetricsSnapshots returns every periodic metrics blob, in journal order.
func (r *Recording) MetricsSnapshots() [][]byte {
	return r.blobs(FrameMetrics)
}

func (r *Recording) blobs(typ byte) [][]byte {
	var out [][]byte
	for _, f := range r.Frames {
		if f.Type == typ {
			out = append(out, f.Payload)
		}
	}
	return out
}
