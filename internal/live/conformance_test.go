package live

// The keystone correctness artifact of the live runtime: under the
// deterministic virtual clock, a live run must reproduce the
// discrete-event engine's dispatch decisions and schedule BIT FOR BIT —
// every record field, for every paper heuristic plus SO-LS, across all
// four platform classes, including platforms with exact timing ties
// (integer costs) where any divergence in event ordering would surface.
// This is what guarantees the simulator and the serving runtime can
// never drift apart.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runVirtual executes tasks on the live runtime under the virtual clock,
// submitted by an in-world source at their exact release times.
func runVirtual(t *testing.T, pl core.Platform, s sim.Scheduler, tasks []core.Task) Result {
	t.Helper()
	res, err := Run(Config{
		Platform:  pl,
		Scheduler: s,
		World:     NewVirtual(),
		Sources:   []func(*Source){Replay(tasks)},
	})
	if err != nil {
		t.Fatalf("live run: %v", err)
	}
	return res
}

// schedulerNames returns the full registry (the seven paper heuristics
// plus every extension), so a scheduler added to the registry is
// automatically under conformance. Schedulers are stateful, so each run
// constructs its own instance.
func schedulerNames() []string {
	return sched.ExtendedNames()
}

// conformancePlatforms are fixed platforms of all four classes with
// integer (tie-heavy) costs, exercising simultaneous completions,
// arrivals and releases.
func conformancePlatforms() map[string]core.Platform {
	return map[string]core.Platform{
		"uniform":      core.NewPlatform([]float64{1, 1, 1}, []float64{3, 3, 3}),
		"comm-hetero":  core.NewPlatform([]float64{1, 2, 4}, []float64{3, 3, 3}),
		"comp-hetero":  core.NewPlatform([]float64{1, 1, 1}, []float64{2, 3, 6}),
		"fully-hetero": core.NewPlatform([]float64{1, 2, 3}, []float64{2, 4, 5}),
	}
}

// requireIdentical asserts bit-for-bit equality of two schedules.
func requireIdentical(t *testing.T, label string, des, lv core.Schedule) {
	t.Helper()
	if len(des.Records) != len(lv.Records) {
		t.Fatalf("%s: engine has %d records, live %d", label, len(des.Records), len(lv.Records))
	}
	for i := range des.Records {
		a, b := des.Records[i], lv.Records[i]
		if a != b {
			t.Fatalf("%s task %d:\n  engine %+v\n  live   %+v", label, i, a, b)
		}
	}
	for _, obj := range core.Objectives {
		if va, vb := obj.Value(des), obj.Value(lv); va != vb {
			t.Fatalf("%s: %v differs: engine %v, live %v", label, obj, va, vb)
		}
	}
}

// TestConformanceTieHeavyPlatforms is the exhaustive sweep over the
// tie-heavy fixed platforms: every scheduler, every class, bag and
// staggered (tie-including) releases.
func TestConformanceTieHeavyPlatforms(t *testing.T) {
	workloads := map[string][]core.Task{
		"bag":       core.Bag(24),
		"staggered": core.ReleasesAt(0, 0, 1, 1, 1, 2, 3, 3, 5, 5, 8, 8, 8, 13, 21, 21),
	}
	for plName, pl := range conformancePlatforms() {
		for wlName, tasks := range workloads {
			for _, name := range schedulerNames() {
				label := fmt.Sprintf("%s/%s/%s", plName, wlName, name)
				des, err := sim.Simulate(pl, sched.New(name), tasks)
				if err != nil {
					t.Fatalf("%s engine: %v", label, err)
				}
				lv := runVirtual(t, pl, sched.New(name), tasks)
				requireIdentical(t, label, des, lv.Schedule)
				if err := core.ValidateSchedule(lv.Schedule); err != nil {
					t.Fatalf("%s: live schedule invalid: %v", label, err)
				}
			}
		}
	}
}

// TestConformanceRandomPlatforms sweeps random platforms of every class
// with Poisson arrivals and perturbed task sizes — the paper's
// experimental regime.
func TestConformanceRandomPlatforms(t *testing.T) {
	rng := rand.New(rand.NewSource(2006))
	for trial := 0; trial < 8; trial++ {
		class := core.Classes[trial%len(core.Classes)]
		pl := core.Random(rng, class, core.GenConfig{M: 2 + rng.Intn(4)})
		cfg := workload.Config{N: 40, Pattern: workload.Poisson, Rate: 2}
		if trial%2 == 1 {
			cfg.Perturb = 0.1
		}
		tasks := workload.Generate(rng, cfg)
		for _, name := range schedulerNames() {
			label := fmt.Sprintf("trial%d/%v/%s", trial, class, name)
			des, err := sim.Simulate(pl, sched.New(name), tasks)
			if err != nil {
				t.Fatalf("%s engine: %v", label, err)
			}
			lv := runVirtual(t, pl, sched.New(name), tasks)
			requireIdentical(t, label, des, lv.Schedule)
		}
	}
}

// TestConformanceTraceAnalysis pins that the downstream analysis stack
// sees identical numbers: trace.Analyze over the live schedule equals
// trace.Analyze over the engine schedule.
func TestConformanceTraceAnalysis(t *testing.T) {
	pl := conformancePlatforms()["fully-hetero"]
	tasks := core.ReleasesAt(0, 0, 0, 1, 2, 4, 4, 7, 9, 9)
	for _, name := range schedulerNames() {
		des, err := sim.Simulate(pl, sched.New(name), tasks)
		if err != nil {
			t.Fatalf("%s engine: %v", name, err)
		}
		lv := runVirtual(t, pl, sched.New(name), tasks)
		ra, rb := trace.Analyze(des), trace.Analyze(lv.Schedule)
		if ra.Makespan != rb.Makespan || ra.PortBusy != rb.PortBusy ||
			ra.MeanCommWait != rb.MeanCommWait || ra.MeanQueueWait != rb.MeanQueueWait ||
			ra.MeanService != rb.MeanService || ra.PortIdleWithPending != rb.PortIdleWithPending {
			t.Fatalf("%s: trace reports differ:\n engine %+v\n live   %+v", name, ra, rb)
		}
	}
}

// TestConformanceEventLog checks the event log agrees with the schedule
// it converts to: every record field appears as an event at the same
// instant.
func TestConformanceEventLog(t *testing.T) {
	pl := conformancePlatforms()["comp-hetero"]
	lv := runVirtual(t, pl, sched.New("LS"), core.Bag(12))
	type key struct {
		kind EventKind
		task int
	}
	at := map[key]float64{}
	for _, ev := range lv.Events {
		at[key{ev.Kind, ev.Task}] = ev.T
	}
	for i, r := range lv.Schedule.Records {
		checks := []struct {
			kind EventKind
			want float64
		}{
			{EvSubmitted, r.Release},
			{EvSent, r.SendStart},
			{EvArrived, r.Arrive},
			{EvStarted, r.Start},
			{EvCompleted, r.Complete},
		}
		for _, c := range checks {
			got, ok := at[key{c.kind, i}]
			if !ok {
				t.Fatalf("task %d: no %v event", i, c.kind)
			}
			if got != c.want {
				t.Fatalf("task %d: %v event at %v, record says %v", i, c.kind, got, c.want)
			}
		}
	}
}

// TestReplay pins the one replay source: on a virtual world every job is
// submitted at exactly its task's release (no accumulated sleep error),
// IDs follow release order whatever order the tasks were given in, the
// perturbation scales travel with the job, and the run drains.
func TestReplay(t *testing.T) {
	tasks := []core.Task{
		{Release: 0.7, CommScale: 1.25, CompScale: 0.8},
		{Release: 0.1},
		{Release: 0.1 + 0.2, CompScale: 1.1}, // 0.30000000000000004
		{Release: 0.3},
		{Release: 0},
		{Release: 0.7, CommScale: 0.9},
	}
	pl := conformancePlatforms()["fully-hetero"]
	res := runVirtual(t, pl, sched.New("LS"), tasks)
	want := core.NewInstance(pl, tasks).Tasks
	if len(res.Schedule.Records) != len(want) {
		t.Fatalf("%d records for %d tasks", len(res.Schedule.Records), len(want))
	}
	for i, r := range res.Schedule.Records {
		got := res.Schedule.Instance.Tasks[i]
		if int(r.Task) != i || r.Release != want[i].Release || got.Release != want[i].Release ||
			got.CommScale != want[i].CommScale || got.CompScale != want[i].CompScale {
			t.Fatalf("job %d: record %+v task %+v, want task %+v", i, r, got, want[i])
		}
		if r.Complete <= r.Release {
			t.Fatalf("job %d never ran: %+v", i, r)
		}
	}
}
