package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/schedd"
)

func TestGeneratorsAreDeterministicPerSeedAndKey(t *testing.T) {
	a, b := perturbedSpecs(2006, "k", 1000), perturbedSpecs(2006, "k", 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and key drew different scales")
	}
	if reflect.DeepEqual(a, perturbedSpecs(7, "k", 1000)) || reflect.DeepEqual(a, perturbedSpecs(2006, "other", 1000)) {
		t.Fatal("a different seed or key drew the same scales")
	}
	for _, s := range a {
		for _, v := range []float64{s.CommScale, s.CompScale} {
			if v < 0.9 || v > 1.1 || v != math.Round(v*1e4)/1e4 {
				t.Fatalf("scale %v outside [0.9, 1.1] or not four decimals", v)
			}
		}
	}
	// The wire form carries exactly the number the in-process form holds.
	var req schedd.SubmitRequest
	if err := json.Unmarshal(perjobLine(a[0]), &req); err != nil {
		t.Fatal(err)
	}
	if req.Count != 1 || req.CommScale != a[0].CommScale || req.CompScale != a[0].CompScale {
		t.Fatalf("line decodes to %+v, spec is %+v", req, a[0])
	}

	due := poissonArrivals(2006, "arrivals", 2400, 2*time.Second)
	if !reflect.DeepEqual(due, poissonArrivals(2006, "arrivals", 2400, 2*time.Second)) {
		t.Fatal("same seed drew different arrivals")
	}
	if n := len(due); n < 4300 || n > 5300 {
		t.Fatalf("%d arrivals in 2 s at 2400/s", n)
	}
	if !sort.SliceIsSorted(due, func(i, j int) bool { return due[i] < due[j] }) || due[len(due)-1] >= 2*time.Second {
		t.Fatal("arrivals not increasing inside the window")
	}

	ids := lookupIDs(2006, "ids", 5000, 100)
	if !reflect.DeepEqual(ids, lookupIDs(2006, "ids", 5000, 100)) {
		t.Fatal("same seed drew different lookup ids")
	}
	for _, id := range ids {
		if id < 0 || id >= 100 {
			t.Fatalf("lookup id %d outside the population", id)
		}
	}
}

func TestScrapeMixIsFixedBySeed(t *testing.T) {
	e := env{seed: 2006, scale: 1}
	ops := scrapeMix(e, scrapePreload)
	if !reflect.DeepEqual(ops, scrapeMix(e, scrapePreload)) {
		t.Fatal("same seed laid out a different mix")
	}
	counts := map[string]int{}
	for _, op := range ops {
		counts[op.kind]++
	}
	want := map[string]int{"stats": scrapeStats, "job": scrapeLookups, "trace": scrapeTraces, "metrics": scrapeMetrics}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("mix counts %v, want %v", counts, want)
	}
	if ops[0].kind != "stats" {
		t.Fatal("each round opens with its stats scrape")
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {99, 10}, {10, 1}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample gives %v", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it, capped at p99 on an open loop and p95 on a closed one.
func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n            int
		open, closed float64
	}{
		{5, 50, 50}, {19, 50, 50}, {20, 50, 50}, {39, 50, 50}, {40, 75, 75}, {99, 75, 75},
		{100, 90, 90}, {199, 90, 90}, {200, 95, 95}, {999, 95, 95},
		{1000, 99, 95}, {19000, 99, 95}, {400000, 99, 95},
	} {
		for limit, want := range map[float64]float64{openLoopTail: c.open, closedLoopTail: c.closed} {
			got := tailPercentile(c.n, limit)
			if got != want {
				t.Errorf("n=%d capped at p%v: tail p%v, want p%v", c.n, limit, got, want)
			}
			if c.n >= 20 && samplesBeyond(c.n, got) < 10 {
				t.Errorf("n=%d: only %d samples beyond p%v", c.n, samplesBeyond(c.n, got), got)
			}
		}
	}
}

// Latencies and rates are summarised per consecutive slice of the run and
// the median slice is reported, so a stall confined to one slice moves
// neither.
func TestSummariesIgnoreAStallInOneSlice(t *testing.T) {
	steady := make([]float64, 2000)
	for i := range steady {
		steady[i] = float64(1 + i%100) // every slice of 200 holds 1..100 twice
	}
	p50, tail, p := latencySummary(steady, openLoopTail)
	if p50 != 50 || tail != 95 || p != 95 {
		t.Fatalf("steady sample: p50 %v, tail %v at p%v", p50, tail, p)
	}
	stalled := append([]float64(nil), steady...)
	for i := 600; i < 800; i++ {
		stalled[i] += 1000
	}
	if a, b, _ := latencySummary(stalled, openLoopTail); a != p50 || b != tail {
		t.Fatalf("a stall in one slice moved the summary to %v, %v", a, b)
	}
	if p50, tail, p := latencySummary([]float64{3, 1, 2}, openLoopTail); p50 != 2 || tail != 2 || p != 50 {
		t.Fatalf("small sample: p50 %v, tail %v at p%v", p50, tail, p)
	}

	base := time.Unix(0, 0)
	at, n := make([]time.Time, 100), make([]int, 100)
	for i := range at {
		at[i], n[i] = base.Add(time.Duration(i)*time.Second), 1000 // 1000 units a second
	}
	if got := segmentRate(at, n); got != 1000 {
		t.Fatalf("steady rate %v", got)
	}
	for i := 35; i < 100; i++ {
		at[i] = at[i].Add(20 * time.Second) // one 20 s stall inside the fourth slice
	}
	if got := segmentRate(at, n); got != 1000 {
		t.Fatalf("a stall in one slice moved the rate to %v", got)
	}
	if got := segmentRate(at[:3], n[:3]); got != 1000 {
		t.Fatalf("short stream rate %v", got)
	}
}

// A rung's self cost is what entering one layer higher adds; the self
// costs telescope back to the outermost rung.
func TestLadderSelfTelescopes(t *testing.T) {
	perJob := []float64{3300, 3100, 2800, 450}
	self := ladderSelf(perJob)
	if want := []float64{200, 300, 2350, 450}; !reflect.DeepEqual(self, want) {
		t.Fatalf("self costs %v, want %v", self, want)
	}
	sum := 0.0
	for _, s := range self {
		sum += s
	}
	if sum != perJob[0] {
		t.Fatalf("self costs sum to %v, outermost rung is %v", sum, perJob[0])
	}
	if got := ladderSelf([]float64{100, 120}); got[0] != -20 {
		t.Fatalf("a rung cheaper than the one below it must show as negative, got %v", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []Span{
		{Name: "window", Layer: "bench", StartNS: 0, EndNS: 100},
		{Name: "send", Layer: "schedclient", StartNS: 10, EndNS: 30, Parent: 1},
		{Name: "send", Layer: "schedclient", StartNS: 20, EndNS: 50, Parent: 1}, // overlaps the first
		{Name: "Drain", Layer: "schedd", StartNS: 60, EndNS: 120, Parent: 1},    // runs past its parent
		{Name: "inner", Layer: "cluster", StartNS: 65, EndNS: 70, Parent: 4},
	}
	got := selfTimes(spans)
	// window: 100 − (10..50 ∪ 60..100) = 20; Drain: 60 − 5.
	if want := []int64{20, 20, 30, 55, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	byLayer := layerSelf(spans)
	if byLayer["schedclient"] != 50e-9 || byLayer["bench"] != 20e-9 {
		t.Fatalf("layer self times %v", byLayer)
	}
}

func TestTracerRecordsNestingAndNilIsFree(t *testing.T) {
	var off *tracer
	off.end(off.begin(0, "x", "y")) // must not panic
	tr := newTracer("w", 1)
	root := tr.begin(0, "bench", "window")
	child := tr.begin(root, "schedd", "Drain")
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].RunID != "w-seed1" || tr.spans[0].Workload != "w" {
		t.Fatalf("spans %+v", tr.spans)
	}
	if tr.spans[0].EndNS < tr.spans[1].EndNS || tr.spans[1].EndNS < tr.spans[1].StartNS {
		t.Fatalf("span times out of order: %+v", tr.spans)
	}
	path, err := tr.write(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []map[string]any
	if err := json.Unmarshal(data, &back); err != nil || len(back) != 2 {
		t.Fatalf("span file: %v, %d spans", err, len(back))
	}
	for _, key := range []string{"name", "layer", "workload", "start_ns", "end_ns", "parent", "run_id", "self_ns"} {
		if _, ok := back[0][key]; !ok {
			t.Errorf("span file lacks %q", key)
		}
	}
}

func TestAckRangeOracle(t *testing.T) {
	ranges := func(rs ...[2]int) []streamOutcome {
		var o streamOutcome
		for _, r := range rs {
			o.acks = append(o.acks, schedd.StreamAck{Base: r[0], Count: r[1]})
		}
		return []streamOutcome{o}
	}
	for _, c := range []struct {
		name string
		out  []streamOutcome
		jobs int
		ok   bool
	}{
		{"tiled", ranges([2]int{0, 10}, [2]int{10, 5}), 15, true},
		{"two connections interleaved", append(ranges([2]int{0, 1}, [2]int{2, 1}), ranges([2]int{1, 1}, [2]int{3, 1})...), 4, true},
		{"gap", ranges([2]int{0, 10}, [2]int{11, 4}), 15, false},
		{"overlap", ranges([2]int{0, 10}, [2]int{9, 6}), 15, false},
		{"short", ranges([2]int{0, 10}), 15, false},
	} {
		r := &result{}
		checkAckRanges(r, c.out, c.jobs)
		if (r.failed == 0) != c.ok {
			t.Errorf("%s: failed=%d (%v)", c.name, r.failed, r.failures)
		}
	}
}

func TestWorseningFollowsTheMetricsDirection(t *testing.T) {
	if got := worsening(100, 110, "lower"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100→110 worsens by %v", got)
	}
	if got := worsening(100, 90, "higher"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("higher-is-better 100→90 worsens by %v", got)
	}
	if worsening(100, 90, "lower") >= 0 || worsening(100, 110, "higher") >= 0 {
		t.Error("an improvement must not count as worsening")
	}
}

// BENCHMARK.json and the command must name the same metrics and
// workloads, or the driver refuses the run.
func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		sort.Strings(out)
		return out
	}
	var ws []string
	for _, w := range workloads() {
		ws = append(ws, w.name)
	}
	sort.Strings(ws)
	if got := names(bf.Workloads); !reflect.DeepEqual(got, ws) {
		t.Errorf("workloads: file %v, command %v", got, ws)
	}
	var e2e []string
	for name := range endToEnd(&result{opLatMS: []float64{1}, windowS: 1}) {
		e2e = append(e2e, name)
	}
	sort.Strings(e2e)
	if got := names(bf.EndToEnd); !reflect.DeepEqual(got, e2e) {
		t.Errorf("end_to_end: file %v, command %v", got, e2e)
	}
	layers := perLayerNames()
	sort.Strings(layers)
	if got := names(bf.PerLayer); !reflect.DeepEqual(got, layers) {
		t.Errorf("per_layer: file %v, command %v", got, layers)
	}
}
