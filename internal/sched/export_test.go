package sched

// PlanProbeCounts reads the uniform-p SLJFWC planner's counters: feasibility
// probes run, and probes that took the exact replay.
func PlanProbeCounts() (probes, replays int64) {
	return planProbes.Load(), planReplays.Load()
}
