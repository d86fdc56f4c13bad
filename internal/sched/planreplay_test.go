package sched_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/sched"
)

// TestPlanReplayRate is a counted floor on the uniform-p SLJFWC planner:
// over Figure 1's two uniform-p panels and Figure 2 at the paper's scale,
// at most 1 % of its feasibility probes may take the exact replay, the
// O(n²/m) path that decides only level checks within rounding of their
// budget. A planner that replayed routinely would still plan bit-identically
// and fail only here.
func TestPlanReplayRate(t *testing.T) {
	cfg := experiment.Config{Seed: 2006, Schedulers: []string{"SLJFWC"}}
	probes0, replays0 := sched.PlanProbeCounts()
	experiment.Figure1(core.Homogeneous, cfg)
	experiment.Figure1(core.CompHomogeneous, cfg)
	experiment.Figure2(cfg)
	probes, replays := sched.PlanProbeCounts()
	probes, replays = probes-probes0, replays-replays0
	t.Logf("%d of %d probes took the exact replay", replays, probes)
	if probes == 0 {
		t.Fatal("the sweep ran no uniform-p planner probe")
	}
	if 100*replays > probes {
		t.Fatalf("%d of %d probes took the exact replay, above 1 %%", replays, probes)
	}
}
