package trace

import "sort"

// MergeReports combines per-shard Reports into one cluster view. Each
// input report describes the schedule one master served over its own
// slice of the platform; the merge treats the shards as having run
// concurrently from a common origin (which is how the sharded service
// rebases them):
//
//   - Makespan and MaxFlow are maxima over shards — the cluster is done
//     when its last shard is.
//   - SumFlow and PortIdleWithPending are sums.
//   - MeanCommWait, MeanQueueWait and MeanService are task-count-weighted
//     means, so they equal the means over the union of tasks exactly.
//   - PortBusy is aggregate port utilization: total transmit time across
//     every shard's port divided by the merged makespan times the number
//     of ports (each shard owns one) — the fraction of the cluster's
//     total port capacity spent transmitting.
//   - Slaves is the concatenation, ordered by slave index. Callers must
//     relabel shard-local slave indices to global ones before merging
//     (the cluster layer does); MergeReports itself never renumbers.
//
// Empty reports (no tasks) are skipped; merging nothing returns the
// zero Report.
func MergeReports(reports ...Report) Report {
	var merged Report
	ports := 0
	tasks := 0
	portBusyTime := 0.0
	for _, r := range reports {
		n := 0
		for _, st := range r.Slaves {
			n += st.Tasks
		}
		if n == 0 {
			continue
		}
		ports++
		tasks += n
		w := float64(n)
		if r.Makespan > merged.Makespan {
			merged.Makespan = r.Makespan
		}
		if r.MaxFlow > merged.MaxFlow {
			merged.MaxFlow = r.MaxFlow
		}
		merged.SumFlow += r.SumFlow
		merged.PortIdleWithPending += r.PortIdleWithPending
		merged.MeanCommWait += float64(w * r.MeanCommWait)
		merged.MeanQueueWait += float64(w * r.MeanQueueWait)
		merged.MeanService += float64(w * r.MeanService)
		portBusyTime += float64(r.PortBusy * r.Makespan)
		merged.Slaves = append(merged.Slaves, r.Slaves...)
	}
	if tasks == 0 {
		return Report{}
	}
	merged.MeanCommWait /= float64(tasks)
	merged.MeanQueueWait /= float64(tasks)
	merged.MeanService /= float64(tasks)
	if merged.Makespan > 0 {
		merged.PortBusy = portBusyTime / (float64(ports) * merged.Makespan)
	}
	sort.SliceStable(merged.Slaves, func(a, b int) bool {
		return merged.Slaves[a].Slave < merged.Slaves[b].Slave
	})
	return merged
}
