package schedd

import (
	"math"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// TestStatsClusterViewIsOneSample pins GET /v1/stats's cluster view to the
// sample it summarizes: on a platform whose striped shards are one fast
// and one slow, the top-level latency percentiles are those of every
// completed job's latency, bit for bit, and the stage breakdown is the one
// over every completed record. With one shard the cluster view is the
// shard's section.
func TestStatsClusterViewIsOneSample(t *testing.T) {
	pl := core.NewPlatform([]float64{0.1, 1, 0.1, 1}, []float64{0.5, 5, 0.5, 5})
	for _, shards := range []int{1, 2, 4} {
		s, err := New(Config{Platform: pl, Policy: "LS", Shards: shards, VirtualClock: true})
		if err != nil {
			t.Fatal(err)
		}
		ts := newTestHTTP(t, s)
		if code := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Count: 400}, nil); code != http.StatusAccepted {
			t.Fatalf("%d shards: POST /v1/jobs: %d", shards, code)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		got := s.Stats()
		var lat []float64
		var recs []core.Record
		for _, sh := range s.Router().Shards() {
			for _, rec := range sh.Tracker().Stats().Records {
				lat = append(lat, rec.Flow()/got.ClockScale)
				recs = append(recs, rec)
			}
		}
		if len(lat) != 400 || got.LatencySeconds == nil || got.StageSeconds == nil {
			t.Fatalf("%d shards: %d completed, latency %+v, stages %+v", shards, len(lat), got.LatencySeconds, got.StageSeconds)
		}
		want := stats.Summarize(lat)
		l := *got.LatencySeconds
		if l.P50 != want.P50 || l.P95 != want.P95 || l.P99 != want.P99 {
			t.Errorf("%d shards: p50/p95/p99 %v/%v/%v, want %v/%v/%v over every job",
				shards, l.P50, l.P95, l.P99, want.P50, want.P95, want.P99)
		}
		if math.Abs(l.Mean-want.Mean) > 1e-12*want.Mean {
			t.Errorf("%d shards: mean %v, want %v", shards, l.Mean, want.Mean)
		}
		if b := obs.Breakdown(recs).Scale(got.ClockScale); *got.StageSeconds != b {
			t.Errorf("%d shards: stages %+v, want %+v over every job", shards, *got.StageSeconds, b)
		}
		if shards == 1 {
			sec := got.PerShard[0]
			if *got.LatencySeconds != *sec.LatencySeconds || *got.StageSeconds != *sec.StageSeconds {
				t.Errorf("one shard: cluster latency %+v stages %+v, shard section %+v %+v",
					*got.LatencySeconds, *got.StageSeconds, *sec.LatencySeconds, *sec.StageSeconds)
			}
		}
	}
}
