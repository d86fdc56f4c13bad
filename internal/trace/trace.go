// Package trace analyses completed schedules: per-slave utilization,
// port occupancy, queueing behaviour and per-task latency decomposition.
// The paper reasons about exactly these quantities informally (idle
// links, pipelined communication, saturated ports); this package makes
// them measurable for any run.
//
// Analyze is one pass over the records plus one earliest-unsent-release
// sweep in send order (core.SendOrder): O(n) and copy-free for records
// already in send order, which is what engines and live trackers hand it;
// O(n log n) for an arbitrary list.
package trace

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
)

// SlaveStats describes one slave's activity over a schedule. The JSON
// field names are a stable wire format shared by schedd's GET /v1/stats and
// the CLI -json paths (see TestReportJSONGolden).
type SlaveStats struct {
	Slave       int     `json:"slave"`
	Tasks       int     `json:"tasks"`
	BusyTime    float64 `json:"busy_time"`   // total computation time
	Utilization float64 `json:"utilization"` // BusyTime / makespan
	// MeanQueueWait is the average time a task spent queued at the slave
	// between arrival and computation start.
	MeanQueueWait float64 `json:"mean_queue_wait"`
	// FirstStart and LastComplete bound the slave's active window.
	FirstStart   float64 `json:"first_start"`
	LastComplete float64 `json:"last_complete"`
}

// Report is the full analysis of one schedule. Its JSON encoding is the
// one stable wire format for schedule analyses: schedd's GET /v1/stats and
// the CLI -json paths both emit it, and a golden test pins the field
// names.
type Report struct {
	Makespan float64 `json:"makespan"`
	MaxFlow  float64 `json:"max_flow"`
	SumFlow  float64 `json:"sum_flow"`
	// PortBusy is the fraction of the makespan the master's port spent
	// transmitting.
	PortBusy float64 `json:"port_busy"`
	// PortIdleWithPending accumulates port idle time while at least one
	// released task was unsent: each idle gap is charged from the release
	// of the earliest-released unsent task (or the gap's start, if later)
	// to the next send. Zero for work-conserving schedules.
	PortIdleWithPending float64      `json:"port_idle_with_pending"`
	Slaves              []SlaveStats `json:"slaves"`
	// MeanCommWait is the average task wait between release and send
	// start (master-side queueing).
	MeanCommWait float64 `json:"mean_comm_wait"`
	// MeanQueueWait is the average slave-side wait (arrival to start).
	MeanQueueWait float64 `json:"mean_queue_wait"`
	// MeanService is the average comm+comp service time actually charged.
	MeanService float64 `json:"mean_service"`
}

// Analyze computes a Report. It panics on schedules with missing records
// (use it only on completed runs).
func Analyze(s core.Schedule) Report {
	if len(s.Records) == 0 {
		return Report{}
	}
	r := Report{Slaves: make([]SlaveStats, s.Instance.Platform.M())}
	for j := range r.Slaves {
		r.Slaves[j] = SlaveStats{Slave: j, FirstStart: math.Inf(1)}
	}

	commBusy := 0.0
	for _, rec := range s.Records {
		// The three objectives accumulate as the Schedule methods of the
		// same names do, in the same record order, so they agree to the bit.
		if rec.Complete > r.Makespan {
			r.Makespan = rec.Complete
		}
		flow := rec.Flow()
		if flow > r.MaxFlow {
			r.MaxFlow = flow
		}
		r.SumFlow += flow
		st := &r.Slaves[rec.Slave]
		st.Tasks++
		st.BusyTime += rec.Complete - rec.Start
		st.MeanQueueWait += rec.Start - rec.Arrive
		if rec.Start < st.FirstStart {
			st.FirstStart = rec.Start
		}
		if rec.Complete > st.LastComplete {
			st.LastComplete = rec.Complete
		}
		commBusy += rec.Arrive - rec.SendStart
		r.MeanCommWait += rec.SendStart - rec.Release
		r.MeanQueueWait += rec.Start - rec.Arrive
		r.MeanService += (rec.Arrive - rec.SendStart) + (rec.Complete - rec.Start)
	}
	n := float64(len(s.Records))
	r.MeanCommWait /= n
	r.MeanQueueWait /= n
	r.MeanService /= n
	mk := r.Makespan
	if mk > 0 {
		r.PortBusy = commBusy / mk
	}
	for j := range r.Slaves {
		st := &r.Slaves[j]
		if st.Tasks > 0 {
			st.MeanQueueWait /= float64(st.Tasks)
		}
		if mk > 0 {
			st.Utilization = st.BusyTime / mk
		}
		if st.Tasks == 0 {
			st.FirstStart = 0
		}
	}
	r.PortIdleWithPending = portIdleWithPending(s.Records)
	return r
}

// portIdleWithPending measures deliberate (non-work-conserving) idling:
// time the port sat idle while a released task remained unsent.
func portIdleWithPending(records []core.Record) float64 {
	recs, earliest := core.SendOrder(records)
	idle, portFree := 0.0, 0.0
	for i, rec := range recs {
		// The port idled during [portFree, rec.SendStart); charge the part
		// of it after the earliest-released unsent task became available.
		if gap := rec.SendStart - math.Max(portFree, earliest[i]); gap > 0 {
			idle += gap
		}
		if rec.Arrive > portFree {
			portFree = rec.Arrive
		}
	}
	return idle
}

// Render formats the report as text.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %.4f   max-flow %.4f   sum-flow %.4f\n", r.Makespan, r.MaxFlow, r.SumFlow)
	fmt.Fprintf(&b, "port busy %.1f%%   deliberate idle %.4f   mean waits: master %.4f, slave %.4f, service %.4f\n",
		r.PortBusy*100, r.PortIdleWithPending, r.MeanCommWait, r.MeanQueueWait, r.MeanService)
	for _, st := range r.Slaves {
		fmt.Fprintf(&b, "  P%-3d %4d tasks   util %5.1f%%   mean queue wait %.4f   active [%.3f, %.3f]\n",
			st.Slave+1, st.Tasks, st.Utilization*100, st.MeanQueueWait, st.FirstStart, st.LastComplete)
	}
	return b.String()
}
