package obs_test

// Span-stream conformance: the PR-3 contract says virtual-clock live
// runs reproduce the discrete-event engine's schedule bit for bit.
// Spans are pure functions of those records, so the contract must
// extend to traces with no new mechanism — for every scheduler in the
// registry and every platform class, the serialized span stream of a
// live run equals the engine's byte for byte, and re-running the live
// runtime replays the identical stream.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// runVirtual executes tasks on the live runtime under the virtual
// clock, submitted at their exact release times.
func runVirtual(t *testing.T, pl core.Platform, s sim.Scheduler, tasks []core.Task) core.Schedule {
	t.Helper()
	res, err := live.Run(live.Config{
		Platform:  pl,
		Scheduler: s,
		World:     live.NewVirtual(),
		Sources:   []func(*live.Source){live.Replay(tasks)},
	})
	if err != nil {
		t.Fatalf("live run: %v", err)
	}
	return res.Schedule
}

// spanBytes serializes a span stream: the byte-identity witness.
func spanBytes(t *testing.T, recs []core.Record) []byte {
	t.Helper()
	b, err := json.Marshal(obs.FromRecords(recs))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSpanStreamConformance(t *testing.T) {
	platforms := map[string]core.Platform{
		"uniform":      core.NewPlatform([]float64{1, 1, 1}, []float64{3, 3, 3}),
		"comm-hetero":  core.NewPlatform([]float64{1, 2, 4}, []float64{3, 3, 3}),
		"comp-hetero":  core.NewPlatform([]float64{1, 1, 1}, []float64{2, 3, 6}),
		"fully-hetero": core.NewPlatform([]float64{1, 2, 3}, []float64{2, 4, 5}),
	}
	tasks := core.ReleasesAt(0, 0, 1, 1, 2, 3, 3, 5, 8, 8, 13, 13)
	for plName, pl := range platforms {
		for _, name := range sched.ExtendedNames() {
			label := fmt.Sprintf("%s/%s", plName, name)
			des, err := sim.Simulate(pl, sched.New(name), tasks)
			if err != nil {
				t.Fatalf("%s engine: %v", label, err)
			}
			want := spanBytes(t, des.Records)
			got := spanBytes(t, runVirtual(t, pl, sched.New(name), tasks).Records)
			if !bytes.Equal(want, got) {
				t.Fatalf("%s: live span stream differs from engine:\n engine %s\n live   %s",
					label, want, got)
			}
			// Replay determinism: a second live run yields the same bytes.
			if again := spanBytes(t, runVirtual(t, pl, sched.New(name), tasks).Records); !bytes.Equal(want, again) {
				t.Fatalf("%s: live span stream not reproducible", label)
			}
		}
	}
}

// TestSpanStagesTileLifecycle pins the structural invariant the
// breakdown relies on: stages are contiguous, non-negative, and tile
// [Start, End] exactly for every job of a real schedule.
func TestSpanStagesTileLifecycle(t *testing.T) {
	pl := core.NewPlatform([]float64{1, 2, 3}, []float64{2, 4, 5})
	des, err := sim.Simulate(pl, sched.New("SO-LS"), core.Bag(16))
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range obs.FromRecords(des.Records) {
		if len(sp.Stages) != 4 {
			t.Fatalf("job %d has %d stages", sp.Job, len(sp.Stages))
		}
		if sp.Stages[0].Start != sp.Start || sp.Stages[3].End != sp.End {
			t.Fatalf("job %d stages do not span the root interval: %+v", sp.Job, sp)
		}
		for i, st := range sp.Stages {
			if st.Duration() < 0 {
				t.Fatalf("job %d stage %s negative: %+v", sp.Job, st.Name, st)
			}
			if i > 0 && sp.Stages[i-1].End != st.Start {
				t.Fatalf("job %d stages not contiguous at %s", sp.Job, st.Name)
			}
		}
	}
}
