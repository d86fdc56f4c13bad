package flight_test

// Flight-recorder conformance: under the virtual clock a live run is
// bit-identical to the discrete-event engine (the PR-3 contract), and
// the recorder reads no clock of its own, so the recording a virtual
// run journals must be byte-identical across repeated runs — and across
// GOMAXPROCS settings, since the virtual substrate is cooperative.
// That makes the raw recording bytes a differential-testing surface
// for every scheduler × platform class, which this suite pins. The
// journaled span frames are additionally cross-checked against the
// engine's schedule records, closing the loop between the binary
// journal and the simulation ground truth.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs/flight"
	"repro/internal/sched"
	"repro/internal/sim"
)

// recordVirtual runs tasks on the virtual-clock live runtime with a
// recorder journaling every event and completed span, and returns the
// recording snapshot plus the run's schedule.
func recordVirtual(t *testing.T, cfg flight.Config, pl core.Platform, name string, tasks []core.Task) ([]byte, core.Schedule) {
	t.Helper()
	rec, err := flight.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tracker := live.NewTracker()
	res, err := live.Run(live.Config{
		Platform:  pl,
		Scheduler: sched.New(name),
		World:     live.NewVirtual(),
		Observer: func(ev live.Event) {
			rec.Observe(0, ev, tracker.Observe(ev))
		},
		Sources: []func(*live.Source){live.Replay(tasks)},
	})
	if err != nil {
		t.Fatalf("live run: %v", err)
	}
	return rec.Snapshot(), res.Schedule
}

func TestRecordingConformance(t *testing.T) {
	platforms := map[string]core.Platform{
		"uniform":      core.NewPlatform([]float64{1, 1, 1}, []float64{3, 3, 3}),
		"comm-hetero":  core.NewPlatform([]float64{1, 2, 4}, []float64{3, 3, 3}),
		"comp-hetero":  core.NewPlatform([]float64{1, 1, 1}, []float64{2, 3, 6}),
		"fully-hetero": core.NewPlatform([]float64{1, 2, 3}, []float64{2, 4, 5}),
	}
	tasks := core.ReleasesAt(0, 0, 1, 1, 2, 3, 3, 5, 8, 8, 13, 13)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for plName, pl := range platforms {
		for _, name := range sched.ExtendedNames() {
			label := fmt.Sprintf("%s/%s", plName, name)

			snap, schedule := recordVirtual(t, flight.Config{}, pl, name, tasks)

			// Byte-identity across repeated runs.
			again, _ := recordVirtual(t, flight.Config{}, pl, name, tasks)
			if !bytes.Equal(snap, again) {
				t.Fatalf("%s: recording not reproducible across runs", label)
			}

			// Byte-identity across GOMAXPROCS: the cooperative virtual
			// substrate must journal the same bytes single-threaded.
			runtime.GOMAXPROCS(1)
			serial, _ := recordVirtual(t, flight.Config{}, pl, name, tasks)
			runtime.GOMAXPROCS(prev)
			if !bytes.Equal(snap, serial) {
				t.Fatalf("%s: recording differs under GOMAXPROCS=1", label)
			}

			// The journaled span frames equal the engine's schedule records.
			des, err := sim.Simulate(pl, sched.New(name), tasks)
			if err != nil {
				t.Fatalf("%s engine: %v", label, err)
			}
			parsed, err := flight.Parse(snap)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			spans := parsed.Spans()
			if len(spans) != len(des.Records) {
				t.Fatalf("%s: %d span frames, engine has %d records", label, len(spans), len(des.Records))
			}
			byTask := map[core.TaskID]core.Record{}
			for _, r := range des.Records {
				byTask[r.Task] = r
			}
			for _, sp := range spans {
				want, ok := byTask[sp.Record.Task]
				if !ok {
					t.Fatalf("%s: span frame for unknown task %d", label, sp.Record.Task)
				}
				if sp.Record != want {
					t.Fatalf("%s: span frame %+v differs from engine record %+v", label, sp.Record, want)
				}
			}
			// And the live schedule itself matches the engine (the PR-3
			// contract this suite builds on).
			if len(schedule.Records) != len(des.Records) {
				t.Fatalf("%s: live schedule has %d records, engine %d", label, len(schedule.Records), len(des.Records))
			}
		}
	}
}

// TestRecordingConformanceUnderRotation re-pins byte-identity with
// segments small enough that the run rotates and drops history: the
// ring's rotation and drop decisions are pure functions of the byte
// stream, so the retained suffix must also be identical across runs.
func TestRecordingConformanceUnderRotation(t *testing.T) {
	pl := core.NewPlatform([]float64{1, 2, 3}, []float64{2, 4, 5})
	tasks := core.ReleasesAt(0, 0, 1, 1, 2, 3, 3, 5, 8, 8, 13, 13)
	cfg := flight.Config{SegmentBytes: 1024, MaxSegments: 2}
	for _, name := range sched.ExtendedNames() {
		snap, _ := recordVirtual(t, cfg, pl, name, tasks)
		again, _ := recordVirtual(t, cfg, pl, name, tasks)
		if !bytes.Equal(snap, again) {
			t.Fatalf("%s: rotated recording not reproducible", name)
		}
		parsed, err := flight.Parse(snap)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(parsed.Frames) == 0 {
			t.Fatalf("%s: empty rotated recording", name)
		}
	}
}
