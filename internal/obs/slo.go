package obs

import (
	"fmt"
	"slices"
	"sync"
)

// SLO engine: configurable latency/availability objectives with
// multi-window burn-rate computation, the Google-SRE-style alerting
// arithmetic. A burn rate is how fast the error budget is being spent:
// with target T, the budget is 1−T, and burn = errorRate / (1−T) — 1.0
// means the budget is being consumed exactly at the rate that exhausts
// it over the window; above 1 the objective is being missed. Computing
// the same rate over several windows (a short one for fast detection, a
// long one to ride out blips) is what makes burn-rate alerts both fast
// and low-noise.
//
// Like everything in this package, the engine reads no clock: every
// Record and Burn call carries its own time (seconds in any monotone
// domain — schedd passes wall seconds since start). Recording is
// allocation-free: samples land in a preallocated ring of one-second
// buckets sized to the longest window.

// Objective kinds.
const (
	// ObjectiveLatency counts a served job good when its latency is at
	// most ThresholdSeconds.
	ObjectiveLatency = "latency"
	// ObjectiveAvailability counts a request good when it did not fail
	// (schedd: HTTP status < 500).
	ObjectiveAvailability = "availability"
)

// Objective is one service-level objective: a good-event criterion plus
// the target fraction of events that must be good.
type Objective struct {
	// Name labels the objective on /metrics and /v1/slo; required, unique
	// per server.
	Name string `json:"name"`
	// Kind is ObjectiveLatency or ObjectiveAvailability.
	Kind string `json:"kind"`
	// ThresholdSeconds is the latency cutoff for ObjectiveLatency
	// (ignored for availability objectives).
	ThresholdSeconds float64 `json:"threshold_seconds,omitempty"`
	// Target is the objective's good fraction, strictly between 0 and 1
	// (e.g. 0.99 = "99% of jobs complete within the threshold").
	Target float64 `json:"target"`
}

// Validate checks the objective's shape.
func (o Objective) Validate() error {
	if o.Name == "" {
		return fmt.Errorf("obs: objective needs a name")
	}
	switch o.Kind {
	case ObjectiveLatency:
		if !(o.ThresholdSeconds > 0) { // NaN fails too
			return fmt.Errorf("obs: latency objective %q needs a positive threshold", o.Name)
		}
	case ObjectiveAvailability:
	default:
		return fmt.Errorf("obs: objective %q has unknown kind %q", o.Name, o.Kind)
	}
	if !(o.Target > 0 && o.Target < 1) { // NaN fails too
		return fmt.Errorf("obs: objective %q target %v outside (0, 1)", o.Name, o.Target)
	}
	return nil
}

// BurnWindow is one window's burn-rate report.
type BurnWindow struct {
	WindowSeconds float64 `json:"window_seconds"`
	Good          uint64  `json:"good"`
	Total         uint64  `json:"total"`
	// ErrorRate is 1 − good/total (0 with no events).
	ErrorRate float64 `json:"error_rate"`
	// BurnRate is ErrorRate / (1 − Target): 1.0 spends the error budget
	// exactly over the window, above 1 the objective is being missed.
	BurnRate float64 `json:"burn_rate"`
	// OK is BurnRate ≤ 1.
	OK bool `json:"ok"`
}

// SLO tracks one objective over a ring of one-second buckets.
type SLO struct {
	obj     Objective
	windows []float64 // ascending, seconds

	mu    sync.Mutex
	good  []uint64 // per-second buckets, len = max window
	bad   []uint64
	head  int64 // current second (floor of the latest time seen); -1 before any
	tgood uint64
	tbad  uint64
}

// NewSLO builds a monitor for the objective over the given windows
// (seconds; defaults to 300 and 3600 — 5 minutes and 1 hour). Windows
// must be positive; they are sorted ascending and the bucket ring is
// sized to the longest.
func NewSLO(obj Objective, windows ...float64) (*SLO, error) {
	if err := obj.Validate(); err != nil {
		return nil, err
	}
	if len(windows) == 0 {
		windows = []float64{300, 3600}
	}
	ws := append([]float64(nil), windows...)
	for i, w := range ws {
		if w <= 0 {
			return nil, fmt.Errorf("obs: objective %q window %d is %v, want positive", obj.Name, i, w)
		}
	}
	slices.Sort(ws)
	size := int(ws[len(ws)-1])
	if size < 1 {
		size = 1
	}
	return &SLO{
		obj:     obj,
		windows: ws,
		good:    make([]uint64, size),
		bad:     make([]uint64, size),
		head:    -1,
	}, nil
}

// Objective returns the monitored objective.
func (s *SLO) Objective() Objective { return s.obj }

// Windows returns the configured windows in seconds, ascending. The
// slice is shared; treat it as read-only.
func (s *SLO) Windows() []float64 { return s.windows }

// Record counts one event at time t (seconds, caller's monotone
// domain). Allocation-free. Events timestamped before the retained ring
// are dropped; events within it land in their own second's bucket.
func (s *SLO) Record(t float64, good bool) {
	sec := int64(t)
	s.mu.Lock()
	s.advance(sec)
	if sec <= s.head-int64(len(s.good)) {
		s.mu.Unlock()
		return // older than the ring retains
	}
	i := ((sec % int64(len(s.good))) + int64(len(s.good))) % int64(len(s.good))
	if good {
		s.good[i]++
		s.tgood++
	} else {
		s.bad[i]++
		s.tbad++
	}
	s.mu.Unlock()
}

// RecordLatency records one latency sample against a latency objective:
// good iff the sample is within the threshold.
func (s *SLO) RecordLatency(t, latencySeconds float64) {
	s.Record(t, latencySeconds <= s.obj.ThresholdSeconds)
}

// advance moves the ring head to sec, zeroing buckets that fall out of
// every window. Caller holds s.mu.
func (s *SLO) advance(sec int64) {
	if s.head < 0 {
		s.head = sec
		return
	}
	if sec <= s.head {
		return
	}
	n := int64(len(s.good))
	if sec-s.head >= n {
		for i := range s.good {
			s.good[i], s.bad[i] = 0, 0
		}
		s.head = sec
		return
	}
	for s.head < sec {
		s.head++
		i := ((s.head % n) + n) % n
		s.good[i], s.bad[i] = 0, 0
	}
}

// Burn reports every window's burn rate as of time t.
func (s *SLO) Burn(t float64) []BurnWindow {
	out := make([]BurnWindow, len(s.windows))
	s.mu.Lock()
	s.advance(int64(t))
	for i, w := range s.windows {
		out[i] = s.burnLocked(w)
	}
	s.mu.Unlock()
	return out
}

// BurnRate returns one window's burn rate as of time t — the /metrics
// gauge sampler.
func (s *SLO) BurnRate(t, window float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(int64(t))
	return s.burnLocked(window).BurnRate
}

// Healthy reports whether every window's burn rate is ≤ 1 as of t.
func (s *SLO) Healthy(t float64) bool {
	for _, b := range s.Burn(t) {
		if !b.OK {
			return false
		}
	}
	return true
}

// Totals returns the all-time good and total event counts.
func (s *SLO) Totals() (good, total uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tgood, s.tgood + s.tbad
}

// burnLocked sums the newest min(window, ring) buckets. Caller holds
// s.mu with the ring advanced to the query time.
func (s *SLO) burnLocked(window float64) BurnWindow {
	bw := BurnWindow{WindowSeconds: window, OK: true}
	n := int64(len(s.good))
	span := int64(window)
	if span > n {
		span = n
	}
	if span < 1 {
		span = 1
	}
	if s.head >= 0 {
		for k := int64(0); k < span; k++ {
			i := (((s.head - k) % n) + n) % n
			bw.Good += s.good[i]
			bw.Total += s.good[i] + s.bad[i]
		}
	}
	if bw.Total > 0 {
		bw.ErrorRate = 1 - float64(bw.Good)/float64(bw.Total)
		bw.BurnRate = bw.ErrorRate / (1 - s.obj.Target)
		bw.OK = bw.BurnRate <= 1
	}
	return bw
}
