package schedd

// Observability surface beyond /metrics: the flight-recorder tap, the
// /v1/watch SSE stream, and the SLO burn-rate endpoint. Everything here
// follows the off-hot-path rule — the cluster observer does constant
// work per event (a bounded binary append plus an atomic subscriber
// check), and all JSON formatting happens on reader goroutines or only
// when a watcher is actually connected.

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/live"
	"repro/internal/obs"
)

// observeShardEvent is the cluster's per-event tap (cluster.Config.
// Observer), run inside the shard's master actor after the shard's
// tracker has applied ev. One sink per concern, and one lookup: at a
// completion the job is read back from the tracker. The flight recorder
// journals the event and, at a completion, the job's span; a completion
// also feeds the job-latency histogram and the latency SLOs (wall
// seconds); then the event goes to /v1/watch subscribers.
func (s *Server) observeShardEvent(shard int, ev live.Event) {
	var job live.JobInfo
	if ev.Kind == live.EvCompleted {
		job, _ = s.router.Shards()[shard].Tracker().Job(ev.Task)
	}
	s.recorder.Observe(shard, ev, job)
	if ev.Kind == live.EvCompleted {
		wall := job.Latency() / s.cfg.ClockScale
		if s.jobLatency != nil {
			s.jobLatency.Observe(wall)
		}
		if len(s.latencySLOs) > 0 {
			now := s.sloNow()
			for _, m := range s.latencySLOs {
				m.RecordLatency(now, wall)
			}
		}
	}
	s.watch.publish(shard, ev)
}

// WatchEvent is one line of the GET /v1/watch SSE stream: a lifecycle
// event with its shard, in model seconds on the serving clock.
type WatchEvent struct {
	T     float64 `json:"t"`
	Shard int     `json:"shard"`
	Kind  string  `json:"kind"`
	Task  int     `json:"task"`
	Slave int     `json:"slave"` // -1 while unassigned
}

// watchHub fans lifecycle events out to SSE subscribers. The publish
// path is free when nobody watches (one atomic load); with subscribers
// it marshals once and does a non-blocking send per subscriber, counting
// drops instead of ever blocking the master actor.
type watchHub struct {
	mu      sync.Mutex
	subs    map[int]chan []byte
	nextID  int
	nsubs   atomic.Int32
	dropped atomic.Uint64
}

func newWatchHub() *watchHub {
	return &watchHub{subs: make(map[int]chan []byte)}
}

func (h *watchHub) publish(shard int, ev live.Event) {
	if h == nil || h.nsubs.Load() == 0 {
		return
	}
	line, err := json.Marshal(WatchEvent{
		T:     ev.T,
		Shard: shard,
		Kind:  ev.Kind.String(),
		Task:  ev.Task,
		Slave: ev.Slave,
	})
	if err != nil {
		return
	}
	h.mu.Lock()
	for _, ch := range h.subs {
		select {
		case ch <- line:
		default:
			h.dropped.Add(1)
		}
	}
	h.mu.Unlock()
}

func (h *watchHub) subscribe() (int, chan []byte) {
	ch := make(chan []byte, 256)
	h.mu.Lock()
	id := h.nextID
	h.nextID++
	h.subs[id] = ch
	h.mu.Unlock()
	h.nsubs.Add(1)
	return id, ch
}

func (h *watchHub) unsubscribe(id int) {
	h.mu.Lock()
	if _, ok := h.subs[id]; ok {
		delete(h.subs, id)
		h.nsubs.Add(-1)
	}
	h.mu.Unlock()
}

func (h *watchHub) subscribers() int { return int(h.nsubs.Load()) }

// watchMaxLimit caps an explicit ?limit= on GET /v1/watch: a bounded
// subscription can still be generous, but never unbounded by accident.
const watchMaxLimit = 1 << 20

// handleWatch serves GET /v1/watch: a Server-Sent Events stream of every
// lifecycle event on every shard (data: one WatchEvent JSON object per
// event), until the client disconnects — or, with ?limit=N, until N
// events have been delivered (a bounded tail for scripts that cannot
// hold a connection open). A slow client loses events (the
// per-subscriber buffer is bounded; drops are counted in /v1/stats), never
// slows the cluster.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	limit, err := queryLimit(r, 0, watchMaxLimit)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	id, ch := s.watch.subscribe()
	defer s.watch.unsubscribe(id)
	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	sent := 0
	for {
		select {
		case <-r.Context().Done():
			return
		case line := <-ch:
			if _, err := w.Write([]byte("data: ")); err != nil {
				return
			}
			_, _ = w.Write(line)
			if _, err := w.Write([]byte("\n\n")); err != nil {
				return
			}
			fl.Flush()
			if sent++; limit > 0 && sent >= limit {
				return
			}
		case <-keepalive.C:
			if _, err := w.Write([]byte(": keepalive\n\n")); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// handleFlight serves GET /v1/flight: the flight recorder's full retained
// recording as raw binary frames (the flight wire format), ready for
// schedctl export. Registered only when the recorder is on.
func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(s.recorder.Snapshot())
}

// SLOStatus is one objective's row of the GET /v1/slo body.
type SLOStatus struct {
	Objective obs.Objective `json:"objective"`
	// OK is true when every window's burn rate is at most 1.
	OK      bool             `json:"ok"`
	Windows []obs.BurnWindow `json:"windows"`
}

// SLOResponse is the GET /v1/slo body: every configured objective with its
// multi-window burn rates as of now. Enabled is false when the service
// runs without objectives (Objectives is then empty).
type SLOResponse struct {
	Enabled    bool        `json:"enabled"`
	Objectives []SLOStatus `json:"objectives"`
}

// sloStatus assembles the current burn-rate report.
func (s *Server) sloStatus() SLOResponse {
	resp := SLOResponse{Enabled: len(s.slos) > 0, Objectives: []SLOStatus{}}
	now := s.sloNow()
	for _, m := range s.slos {
		st := SLOStatus{Objective: m.Objective(), OK: true, Windows: m.Burn(now)}
		for _, b := range st.Windows {
			if !b.OK {
				st.OK = false
			}
		}
		resp.Objectives = append(resp.Objectives, st)
	}
	return resp
}

func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sloStatus())
}

// sloNow is the SLO engine's time base: wall seconds since the service
// started (the engine itself reads no clock). It shares the injectable
// server clock with uptime so frozen-clock tests see stable bodies.
func (s *Server) sloNow() float64 { return s.uptime() }

// uptime is wall seconds since the service started, on the injectable
// server clock.
func (s *Server) uptime() float64 { return s.now().Sub(s.started).Seconds() }

// statusWriter captures the response status for the per-route
// availability accounting, passing Flush through so SSE still streams.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer to http.ResponseController, so
// handlers behind the counted wrapper can still reach controls the
// wrapper doesn't forward (the stream endpoint's full-duplex switch).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// startSnapshots begins the periodic metrics-snapshot journaling: every
// interval, the registry's JSON view is appended to the recording as a
// FrameMetrics blob, giving an exported recording its metric timeline.
func (s *Server) startSnapshots(interval time.Duration) {
	s.snapStop = make(chan struct{})
	s.snapDone = make(chan struct{})
	go func() {
		defer close(s.snapDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.snapStop:
				return
			case <-t.C:
				s.recorder.AppendMetrics(s.gather(s.metrics.WriteJSON))
			}
		}
	}()
}

// stopSnapshots halts the snapshot loop; idempotent.
func (s *Server) stopSnapshots() {
	s.snapOnce.Do(func() {
		if s.snapStop != nil {
			close(s.snapStop)
			<-s.snapDone
		}
	})
}
