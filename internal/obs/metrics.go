// Package obs is the zero-dependency observability kernel: atomic
// counters, gauges and fixed-bucket histograms with a hand-rolled
// Prometheus text exposition, a deterministic span decomposition of job
// lifecycles, and a bounded decision-audit ring. It exists so the
// serving stack (internal/live, internal/cluster, internal/schedd) can
// expose real-time telemetry without violating the PR-4 hot-path
// discipline:
//
//   - The record path allocates nothing. Counters and gauges are single
//     atomic words; a histogram's buckets are preallocated at
//     construction and Observe touches only atomics
//     (TestRecordPathAllocationFree pins this).
//   - Recording never takes a lock shared with exposition. Scrapes
//     (WritePrometheus, WriteJSON) read the same atomics; the registry
//     mutex only guards the metric table, which is written at setup
//     time.
//   - Nothing in this package reads a clock or randomness. Timestamps
//     come from the caller — the runtime's pluggable clock — which is
//     what keeps virtual-clock span streams bit-identical (DESIGN.md
//     §13).
//
// The exposition format is the Prometheus text format, hand-rolled: the
// repository takes no dependencies, and the subset needed — counter,
// gauge, histogram with cumulative le buckets — is a page of code.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous integer level (queue depth, live slaves).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an instantaneous float level, stored as IEEE-754 bits in
// one atomic word.
type FloatGauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current level.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Bounds are upper bucket
// edges in increasing order; an implicit +Inf bucket catches the rest.
// Everything is preallocated at construction: Observe performs one
// binary search over the bounds, two atomic adds and one atomic
// float-add (CAS loop on the sum) — no allocation, no lock.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram with the given upper bounds, which
// must be finite and strictly increasing.
func NewHistogram(bounds []float64) *Histogram {
	for i, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			panic(fmt.Sprintf("obs: histogram bound %d is %v", i, b))
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %d: %v after %v", i, b, bounds[i-1]))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// LatencyBuckets is the default bucket layout for wall-clock latencies
// in seconds: 1ms to 60s, roughly logarithmic.
func LatencyBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Snapshot returns the bucket upper bounds and the CUMULATIVE counts at
// each bound (Prometheus le semantics), plus the +Inf total.
func (h *Histogram) Snapshot() (bounds []float64, cumulative []uint64, total uint64) {
	bounds = h.bounds
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return bounds, cumulative, acc
}

// metricKind discriminates exposition types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled instance of a metric family. Exactly one of the
// value sources is set; fn-backed series are sampled at scrape time.
type series struct {
	labels  string // pre-rendered {k="v",...} or ""
	counter *Counter
	gauge   *Gauge
	fgauge  *FloatGauge
	hist    *Histogram
	fn      func() float64
}

// family is one named metric with help text, a type, and its series in
// registration order.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []series
}

// Registry is an ordered collection of metric families. Registration
// happens at setup time (allocations are fine there); the record path
// never touches the registry. Scrapes walk the table under the mutex,
// reading each series' atomics.
type Registry struct {
	mu       sync.Mutex
	families []*family
	index    map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]*family{}}
}

// validName enforces the Prometheus metric-name charset.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// lookup finds or creates the family, panicking on a name reused with a
// different type — a setup-time programmer error.
func (r *Registry) lookup(name, help string, kind metricKind) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.index[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %v and %v", name, f.kind, kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind}
	r.families = append(r.families, f)
	r.index[name] = f
	return f
}

// Labels renders a label set deterministically (sorted by key) into the
// pre-baked exposition form, e.g. Labels("shard", "0") → `{shard="0"}`.
// Call it at registration time; the result is stored, so the record
// path never formats anything.
func Labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: Labels needs key/value pairs")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	out := "{"
	for i, p := range pairs {
		if i > 0 {
			out += ","
		}
		out += p.k + `="` + escapeLabel(p.v) + `"`
	}
	return out + "}"
}

func escapeLabel(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// Counter registers (or extends) a counter family and returns the
// instance for the given pre-rendered label set (see Labels).
func (r *Registry) Counter(name, help, labels string) *Counter {
	f := r.lookup(name, help, kindCounter)
	c := &Counter{}
	r.mu.Lock()
	f.series = append(f.series, series{labels: labels, counter: c})
	r.mu.Unlock()
	return c
}

// Gauge registers a gauge instance.
func (r *Registry) Gauge(name, help, labels string) *Gauge {
	f := r.lookup(name, help, kindGauge)
	g := &Gauge{}
	r.mu.Lock()
	f.series = append(f.series, series{labels: labels, gauge: g})
	r.mu.Unlock()
	return g
}

// FloatGauge registers a float gauge instance.
func (r *Registry) FloatGauge(name, help, labels string) *FloatGauge {
	f := r.lookup(name, help, kindGauge)
	g := &FloatGauge{}
	r.mu.Lock()
	f.series = append(f.series, series{labels: labels, fgauge: g})
	r.mu.Unlock()
	return g
}

// CounterFunc registers a counter whose value is sampled from fn at
// scrape time — for quantities another subsystem already counts
// atomically (tracker counts, steal totals), so the hot path is not
// instrumented twice.
func (r *Registry) CounterFunc(name, help, labels string, fn func() float64) {
	f := r.lookup(name, help, kindCounter)
	r.mu.Lock()
	f.series = append(f.series, series{labels: labels, fn: fn})
	r.mu.Unlock()
}

// GaugeFunc registers a gauge sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() float64) {
	f := r.lookup(name, help, kindGauge)
	r.mu.Lock()
	f.series = append(f.series, series{labels: labels, fn: fn})
	r.mu.Unlock()
}

// Histogram registers a histogram instance with the given bucket upper
// bounds.
func (r *Registry) Histogram(name, help, labels string, bounds []float64) *Histogram {
	f := r.lookup(name, help, kindHistogram)
	h := NewHistogram(bounds)
	r.mu.Lock()
	f.series = append(f.series, series{labels: labels, hist: h})
	r.mu.Unlock()
	return h
}

// value samples a scalar series.
func (s *series) value() float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gauge != nil:
		return float64(s.gauge.Value())
	case s.fgauge != nil:
		return s.fgauge.Value()
	case s.fn != nil:
		return s.fn()
	}
	return math.NaN()
}

// formatValue renders a sample the way Prometheus expects: integers
// without exponents, floats via strconv's shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): # HELP and # TYPE per family, then
// one line per series; histograms expand to cumulative _bucket lines
// plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for i := range f.series {
			s := &f.series[i]
			if f.kind == kindHistogram {
				if err := writePromHistogram(w, f.name, s); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(s.value())); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHistogram renders one histogram series. The le label is
// spliced into the series' pre-rendered label set.
func writePromHistogram(w io.Writer, name string, s *series) error {
	bounds, cum, total := s.hist.Snapshot()
	for i, b := range bounds {
		if err := writeBucket(w, name, s.labels, formatValue(b), cum[i]); err != nil {
			return err
		}
	}
	if err := writeBucket(w, name, s.labels, "+Inf", total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
		name, s.labels, formatValue(s.hist.Sum()), name, s.labels, total); err != nil {
		return err
	}
	return nil
}

func writeBucket(w io.Writer, name, labels, le string, n uint64) error {
	sep := "{"
	if labels != "" {
		sep = labels[:len(labels)-1] + ","
	}
	_, err := fmt.Fprintf(w, "%s_bucket%sle=%q} %d\n", name, sep, le, n)
	return err
}

// WriteJSON renders the registry as one flat JSON object in the
// /debug/vars idiom: "name{labels}" → value for scalars, histograms as
// {"buckets": {le: cumulative}, "sum": s, "count": n}. Keys appear in
// registration order; the object is rendered by hand to keep it so.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	first := true
	for _, f := range fams {
		for i := range f.series {
			s := &f.series[i]
			if !first {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			first = false
			if _, err := fmt.Fprintf(w, "\n  %q: ", f.name+s.labels); err != nil {
				return err
			}
			if f.kind == kindHistogram {
				if err := writeJSONHistogram(w, s.hist); err != nil {
					return err
				}
				continue
			}
			if _, err := io.WriteString(w, jsonNumber(s.value())); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}

func writeJSONHistogram(w io.Writer, h *Histogram) error {
	bounds, cum, total := h.Snapshot()
	if _, err := io.WriteString(w, `{"buckets": {`); err != nil {
		return err
	}
	for i, b := range bounds {
		if i > 0 {
			if _, err := io.WriteString(w, ", "); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%q: %d", formatValue(b), cum[i]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, `, "+Inf": %d}, "sum": %s, "count": %d}`, total, jsonNumber(h.Sum()), total)
	return err
}

// jsonNumber renders a float as a JSON number (NaN and ±Inf are not
// representable; they become 0, which can only arise from a broken
// func metric).
func jsonNumber(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return formatValue(v)
}
