package core

import (
	"fmt"
	"math"
	"slices"
)

// Eps is the tolerance used when validating floating-point schedules.
// Virtual times in this codebase come from sums of at most a few thousand
// float64 operations, so 1e-6 absolute slack is far beyond accumulated
// error while still catching genuine modeling bugs.
const Eps = 1e-6

// ValidateMultiport checks a schedule against the macro-dataflow variant
// of the model (paper Section 5): everything ValidateSchedule checks
// except the master's one-port exclusivity.
func ValidateMultiport(s Schedule) error {
	return validate(s, false)
}

// ValidateSchedule checks a schedule against every constraint of the
// paper's model:
//
//  1. exactly one record per task, matching the instance's task set;
//  2. no send starts before the task's release;
//  3. sends occupy the master's port exclusively (one-port model) and
//     last exactly c_j scaled by the task's communication factor;
//  4. a slave starts a task no earlier than its arrival, computes for
//     exactly p_j scaled by the task's computation factor, and never
//     overlaps two computations;
//  5. slaves execute their tasks in arrival order (FIFO queues).
//
// It returns the first violation found, or nil for a feasible schedule.
func ValidateSchedule(s Schedule) error {
	return validate(s, true)
}

func validate(s Schedule, onePort bool) error {
	inst := s.Instance
	pl := inst.Platform
	if len(s.Records) != len(inst.Tasks) {
		return fmt.Errorf("core: %d records for %d tasks", len(s.Records), len(inst.Tasks))
	}
	seen := make([]bool, len(inst.Tasks))
	for _, r := range s.Records {
		if r.Task < 0 || int(r.Task) >= len(inst.Tasks) {
			return fmt.Errorf("core: record for unknown task %d", r.Task)
		}
		if seen[r.Task] {
			return fmt.Errorf("core: duplicate record for task %d", r.Task)
		}
		seen[r.Task] = true
		task := inst.Tasks[r.Task]
		if r.Slave < 0 || r.Slave >= pl.M() {
			return fmt.Errorf("core: task %d assigned to unknown slave %d", r.Task, r.Slave)
		}
		if r.Release != task.Release {
			return fmt.Errorf("core: task %d record release %v differs from instance %v", r.Task, r.Release, task.Release)
		}
		if r.SendStart < task.Release-Eps {
			return fmt.Errorf("core: task %d sent at %v before release %v", r.Task, r.SendStart, task.Release)
		}
		wantComm := pl.C[r.Slave] * task.EffComm()
		if diff := r.Arrive - r.SendStart - wantComm; diff < -Eps || diff > Eps {
			return fmt.Errorf("core: task %d communication lasted %v, want %v", r.Task, r.Arrive-r.SendStart, wantComm)
		}
		if r.Start < r.Arrive-Eps {
			return fmt.Errorf("core: task %d started %v before arrival %v", r.Task, r.Start, r.Arrive)
		}
		wantComp := pl.P[r.Slave] * task.EffComp()
		if diff := r.Complete - r.Start - wantComp; diff < -Eps || diff > Eps {
			return fmt.Errorf("core: task %d computation lasted %v, want %v", r.Task, r.Complete-r.Start, wantComp)
		}
	}

	// One-port: the master's sends must not overlap — adjacency in send
	// order is the whole check.
	if onePort {
		byPort := bySendStart(s.Records)
		for i := 1; i < len(byPort); i++ {
			if byPort[i].SendStart < byPort[i-1].Arrive-Eps {
				return fmt.Errorf("core: one-port violation: send of task %d at %v overlaps send of task %d ending %v",
					byPort[i].Task, byPort[i].SendStart, byPort[i-1].Task, byPort[i-1].Arrive)
			}
		}
	}

	// Per-slave: computations must not overlap and must follow arrival
	// order. Grouping is a counting pass over record indices (no record
	// copies, no comparison sort); within a slave, records in list order
	// are in compute order for any schedule the engine emits, so the rare
	// unsorted bucket sorts just its own indices.
	m := pl.M()
	offsets := make([]int, m+1)
	for i := range s.Records {
		offsets[s.Records[i].Slave+1]++
	}
	for j := 0; j < m; j++ {
		offsets[j+1] += offsets[j]
	}
	order := make([]int32, len(s.Records))
	fill := make([]int, m)
	copy(fill, offsets[:m])
	for i := range s.Records {
		j := s.Records[i].Slave
		order[fill[j]] = int32(i)
		fill[j]++
	}
	for j := 0; j < m; j++ {
		bucket := order[offsets[j]:offsets[j+1]]
		sortedByStart := func(a, b int32) int {
			switch {
			case s.Records[a].Start < s.Records[b].Start:
				return -1
			case s.Records[a].Start > s.Records[b].Start:
				return 1
			default:
				return 0
			}
		}
		if !slices.IsSortedFunc(bucket, sortedByStart) {
			slices.SortFunc(bucket, sortedByStart)
		}
		for i := 1; i < len(bucket); i++ {
			cur, prev := &s.Records[bucket[i]], &s.Records[bucket[i-1]]
			if cur.Start < prev.Complete-Eps {
				return fmt.Errorf("core: slave %d computes tasks %d and %d concurrently", j, prev.Task, cur.Task)
			}
			if cur.Arrive < prev.Arrive-Eps {
				return fmt.Errorf("core: slave %d executed task %d (arrived %v) before earlier-arrived task %d (%v)",
					j, prev.Task, prev.Arrive, cur.Task, cur.Arrive)
			}
		}
	}
	return nil
}

// cmpSendStart orders records by send start for the one-port check.
func cmpSendStart(a, b Record) int {
	switch {
	case a.SendStart < b.SendStart:
		return -1
	case a.SendStart > b.SendStart:
		return 1
	default:
		return 0
	}
}

// bySendStart returns the records in send order. Every registered
// scheduler dispatches the oldest pending task, so engine schedules and
// tracker snapshots arrive already in that order and are returned as they
// are; only an out-of-order list (hand-built schedules in tests,
// adversarial traces) pays for a sorted copy.
func bySendStart(recs []Record) []Record {
	if slices.IsSortedFunc(recs, cmpSendStart) {
		return recs
	}
	recs = slices.Clone(recs)
	slices.SortFunc(recs, cmpSendStart)
	return recs
}

// SendOrder returns the records in send order (the caller's slice itself
// when it already is) and, beside them, earliest[i] = the earliest release
// among sorted[i:] — the tasks still unsent while the port waits to send
// sorted[i]. Every question about the port idling beside pending work is
// one forward sweep over the pair: O(n) for sorted input, O(n log n) else.
func SendOrder(recs []Record) (sorted []Record, earliest []float64) {
	sorted = bySendStart(recs)
	earliest = make([]float64, len(sorted))
	low := math.Inf(1)
	for i := len(sorted) - 1; i >= 0; i-- {
		if sorted[i].Release < low {
			low = sorted[i].Release
		}
		earliest[i] = low
	}
	return sorted, earliest
}

// WorkConserving reports whether the schedule keeps the port busy whenever
// a released, unsent task exists and the port is idle. The on-line model
// permits deliberate idling (some adversarial branches hinge on it), so
// this is a diagnostic, not a validity requirement.
func WorkConserving(s Schedule) bool {
	recs, earliest := SendOrder(s.Records)
	portFree := 0.0
	for i, r := range recs {
		// Port idled during (portFree, r.SendStart). Violation only if a
		// released unsent task existed throughout, and the earliest-released
		// one decides that.
		if r.SendStart > portFree+Eps && earliest[i] <= portFree+Eps && earliest[i] < r.SendStart-Eps {
			return false
		}
		if r.Arrive > portFree {
			portFree = r.Arrive
		}
	}
	return true
}
