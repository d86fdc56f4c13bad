package obs

import (
	"math"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
	var fg FloatGauge
	fg.Set(2.5)
	if fg.Value() != 2.5 {
		t.Fatalf("float gauge = %v, want 2.5", fg.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	bounds, cum, total := h.Snapshot()
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v", bounds)
	}
	// le=1 catches 0.5 and 1 (le is inclusive); le=10 adds 5; le=100
	// adds 50; +Inf adds 500.
	want := []uint64{2, 3, 4}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (cum=%v)", i, cum[i], w, cum)
		}
	}
	if total != 5 || h.Count() != 5 {
		t.Fatalf("total = %d, count = %d, want 5", total, h.Count())
	}
	if got := h.Sum(); got != 556.5 {
		t.Fatalf("sum = %v, want 556.5", got)
	}
}

// TestHistogramBucketBoundaries pins the le semantics table-driven: a
// value exactly equal to an upper bound lands in THAT bound's bucket
// (Prometheus le is inclusive — Observe uses the first bound >= v), so
// SLO-style queries over bucket edges never off-by-one.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{0.5, 1, 2.5}
	cases := []struct {
		name   string
		value  float64
		bucket int // index into counts; len(bounds) is +Inf
	}{
		{"below first bound", 0.1, 0},
		{"exactly first bound", 0.5, 0},
		{"just above first bound", math.Nextafter(0.5, 1), 1},
		{"between bounds", 0.75, 1},
		{"exactly middle bound", 1, 1},
		{"exactly last bound", 2.5, 2},
		{"just above last bound", math.Nextafter(2.5, 3), 3},
		{"far above last bound", 100, 3},
		{"zero", 0, 0},
		{"negative", -1, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := NewHistogram(bounds)
			h.Observe(c.value)
			_, cum, total := h.Snapshot()
			if total != 1 {
				t.Fatalf("total = %d", total)
			}
			// The cumulative counts step from 0 to 1 exactly at the target
			// bucket.
			for i, got := range cum {
				want := uint64(0)
				if i >= c.bucket {
					want = 1
				}
				if got != want {
					t.Fatalf("value %v: cumulative[%d] = %d, want %d (cum=%v)", c.value, i, got, want, cum)
				}
			}
		})
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{
		{1, 1},
		{2, 1},
		{math.Inf(1)},
		{math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v: no panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

// TestRecordPathAllocationFree pins the tentpole contract: recording on
// every metric type allocates nothing.
func TestRecordPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs", Labels("shard", "0"))
	g := r.Gauge("depth", "queue depth", "")
	fg := r.FloatGauge("rate", "rate", "")
	h := r.Histogram("lat", "latency", "", LatencyBuckets())
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		fg.Set(1.5)
		h.Observe(0.042)
	}); n != 0 {
		t.Fatalf("record path allocates %v/op, want 0", n)
	}
}

func TestAuditRecordAllocationFree(t *testing.T) {
	a := NewAuditRing(64, 4)
	scores := []float64{1, 2, 3, 4}
	if n := testing.AllocsPerRun(1000, func() {
		a.Record(Decision{Kind: DecisionPlace, Job: 1, From: -1, To: 2, Scores: scores})
	}); n != 0 {
		t.Fatalf("audit record allocates %v/op, want 0", n)
	}
}

// BenchmarkAuditRecord measures one placement decision into the audit
// ring, scores included: the per-batch price of -audit-depth on the
// admission path.
func BenchmarkAuditRecord(b *testing.B) {
	a := NewAuditRing(256, 4)
	scores := []float64{1, 2, 3, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Record(Decision{Kind: DecisionPlace, Job: i, To: i & 3, Scores: scores})
	}
}

func TestLabels(t *testing.T) {
	if got := Labels(); got != "" {
		t.Fatalf("Labels() = %q", got)
	}
	if got := Labels("shard", "0"); got != `{shard="0"}` {
		t.Fatalf("Labels = %q", got)
	}
	// Sorted by key, values escaped.
	if got := Labels("b", `x"y`, "a", "z"); got != `{a="z",b="x\"y"}` {
		t.Fatalf("Labels = %q", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("schedd_jobs_submitted_total", "Jobs accepted.", Labels("shard", "0"))
	c.Add(12)
	r.GaugeFunc("schedd_queue_depth", "Backlog.", "", func() float64 { return 3 })
	h := r.Histogram("schedd_job_latency_seconds", "Latency.", "", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP schedd_jobs_submitted_total Jobs accepted.",
		"# TYPE schedd_jobs_submitted_total counter",
		`schedd_jobs_submitted_total{shard="0"} 12`,
		"# TYPE schedd_queue_depth gauge",
		"schedd_queue_depth 3",
		"# TYPE schedd_job_latency_seconds histogram",
		`schedd_job_latency_seconds_bucket{le="0.1"} 1`,
		`schedd_job_latency_seconds_bucket{le="1"} 1`,
		`schedd_job_latency_seconds_bucket{le="+Inf"} 2`,
		"schedd_job_latency_seconds_sum 5.05",
		"schedd_job_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestWritePrometheusHistogramLabels pins the le splice into an
// existing label set.
func TestWritePrometheusHistogramLabels(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "l", Labels("shard", "1"), []float64{1})
	h.Observe(0.5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_bucket{shard="1",le="1"} 1`,
		`lat_bucket{shard="1",le="+Inf"} 1`,
		`lat_sum{shard="1"} 0.5`,
		`lat_count{shard="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total", "a", Labels("shard", "0"))
	c.Add(2)
	h := r.Histogram("lat", "l", "", []float64{1})
	h.Observe(0.5)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"a_total{shard=\"0\"}": 2`,
		`"lat": {"buckets": {"1": 1, "+Inf": 1}, "sum": 0.5, "count": 1}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"", "2x", "a-b", "a b"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q: no panic", name)
				}
			}()
			r.Counter(name, "", "")
		}()
	}
}

func TestRegistryRejectsKindMismatch(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "", "")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on counter/gauge name collision")
		}
	}()
	r.Gauge("x", "", "")
}
