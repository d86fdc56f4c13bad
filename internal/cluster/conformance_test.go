package cluster

// The sharded layer's keystone contract, extending the PR-3 conformance
// suite one layer up: a ONE-SHARD cluster on the deterministic virtual
// clock must reproduce the discrete-event engine's schedule BIT FOR BIT
// for every registered heuristic (the paper seven plus SO-LS) on
// tie-heavy platforms of all four classes. Shards=1 with round-robin
// placement is exactly the single-runtime serving stack — the cluster
// wrapper must not perturb a single float.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/sched"
	"repro/internal/sim"
)

// conformancePlatforms mirrors the live suite's fixed tie-heavy
// platforms (integer costs, all four classes).
func conformancePlatforms() map[string]core.Platform {
	return map[string]core.Platform{
		"uniform":      core.NewPlatform([]float64{1, 1, 1}, []float64{3, 3, 3}),
		"comm-hetero":  core.NewPlatform([]float64{1, 2, 4}, []float64{3, 3, 3}),
		"comp-hetero":  core.NewPlatform([]float64{1, 1, 1}, []float64{2, 3, 6}),
		"fully-hetero": core.NewPlatform([]float64{1, 2, 3}, []float64{2, 4, 5}),
	}
}

// runSingleShardVirtual executes tasks through a one-shard cluster on
// the virtual clock, submitted by an in-world source at exact release
// times (external Submit would be nondeterministic under vclock).
func runSingleShardVirtual(t *testing.T, pl core.Platform, name string, tasks []core.Task) core.Schedule {
	t.Helper()
	r, err := New(Config{
		Platform:     pl,
		NewScheduler: func() sim.Scheduler { return sched.New(name) },
		Shards:       1,
		Placement:    PlacementRoundRobin,
		World:        func(int) live.World { return live.NewVirtual() },
		Sources:      []func(*live.Source){live.Replay(tasks)},
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	r.Start()
	if err := r.Drain(); err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	return r.Shards()[0].Result().Schedule
}

// TestSingleShardConformance is the exhaustive sweep: every registered
// scheduler × every tie-heavy platform class × bag and staggered
// releases, compared record-for-record and objective-for-objective
// against the engine.
func TestSingleShardConformance(t *testing.T) {
	workloads := map[string][]core.Task{
		"bag":       core.Bag(24),
		"staggered": core.ReleasesAt(0, 0, 1, 1, 1, 2, 3, 3, 5, 5, 8, 8, 8, 13, 21, 21),
	}
	for plName, pl := range conformancePlatforms() {
		for wlName, tasks := range workloads {
			for _, name := range sched.ExtendedNames() {
				label := fmt.Sprintf("%s/%s/%s", plName, wlName, name)
				des, err := sim.Simulate(pl, sched.New(name), tasks)
				if err != nil {
					t.Fatalf("%s engine: %v", label, err)
				}
				lv := runSingleShardVirtual(t, pl, name, tasks)
				if len(des.Records) != len(lv.Records) {
					t.Fatalf("%s: engine has %d records, cluster %d", label, len(des.Records), len(lv.Records))
				}
				for i := range des.Records {
					if des.Records[i] != lv.Records[i] {
						t.Fatalf("%s task %d:\n  engine  %+v\n  cluster %+v", label, i, des.Records[i], lv.Records[i])
					}
				}
				for _, obj := range core.Objectives {
					if va, vb := obj.Value(des), obj.Value(lv); va != vb {
						t.Fatalf("%s: %v differs: engine %v, cluster %v", label, obj, va, vb)
					}
				}
				if err := core.ValidateSchedule(lv); err != nil {
					t.Fatalf("%s: cluster schedule invalid: %v", label, err)
				}
			}
		}
	}
}

// TestSingleShardConformanceEveryPartitionStrategy pins that the
// partition strategy is irrelevant at k=1: both strategies produce the
// identity partition, hence identical schedules.
func TestSingleShardConformanceEveryPartitionStrategy(t *testing.T) {
	pl := conformancePlatforms()["fully-hetero"]
	tasks := core.ReleasesAt(0, 0, 0, 1, 2, 4, 4, 7, 9, 9)
	des, err := sim.Simulate(pl, sched.New("LS"), tasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range core.PartitionStrategies {
		r, err := New(Config{
			Platform:     pl,
			NewScheduler: func() sim.Scheduler { return sched.New("LS") },
			Shards:       1,
			Partition:    strategy,
			World:        func(int) live.World { return live.NewVirtual() },
			Sources:      []func(*live.Source){live.Replay(tasks)},
		})
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		r.Start()
		if err := r.Drain(); err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		lv := r.Shards()[0].Result().Schedule
		for i := range des.Records {
			if des.Records[i] != lv.Records[i] {
				t.Fatalf("%s: task %d diverged", strategy, i)
			}
		}
	}
}
