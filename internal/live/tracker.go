package live

import (
	"sync"

	"repro/internal/core"
)

// Job states as reported by the Tracker.
const (
	StateQueued  = "queued"  // admitted, waiting for the port
	StateSent    = "sent"    // transmitting or queued/computing at the slave
	StateDone    = "done"    // completed
	StateStolen  = "stolen"  // retracted by a steal; re-admitted on another runtime
	StateUnknown = "unknown" // never seen
)

// JobInfo is one job's lifecycle as observed so far. Times are in model
// seconds; Slave is -1 until dispatch.
type JobInfo struct {
	ID        int     `json:"id"`
	State     string  `json:"state"`
	Slave     int     `json:"slave"`
	Submitted float64 `json:"submitted"`
	SendStart float64 `json:"send_start,omitempty"`
	Arrive    float64 `json:"arrive,omitempty"`
	Start     float64 `json:"start,omitempty"`
	Complete  float64 `json:"complete,omitempty"`
	// StolenAt is the model time the job was retracted for migration
	// (meaningful only in the source shard's tracker while State is
	// stolen; the destination tracker restarts the lifecycle).
	StolenAt float64 `json:"stolen_at,omitempty"`
}

// Latency returns the job's response time (submit → complete) in model
// seconds, or 0 if it has not completed.
func (j JobInfo) Latency() float64 {
	if j.State != StateDone {
		return 0
	}
	return j.Complete - j.Submitted
}

// Record returns the job's lifecycle as a schedule record — the one
// JobInfo → core.Record conversion: flight span frames, the /trace span
// tree and Snapshot.Records all come through here. Complete only once
// the job is done.
func (j JobInfo) Record() core.Record {
	return core.Record{
		Task:      core.TaskID(j.ID),
		Slave:     j.Slave,
		Release:   j.Submitted,
		SendStart: j.SendStart,
		Arrive:    j.Arrive,
		Start:     j.Start,
		Complete:  j.Complete,
	}
}

// Counts summarizes the tracked population. Stolen jobs remain inside
// Submitted (they were accepted here), so a runtime's net population is
// Submitted - Stolen; cluster-level merges subtract Stolen to count each
// migrated job exactly once, on the shard that ultimately serves it.
type Counts struct {
	Submitted  int `json:"submitted"`
	Dispatched int `json:"dispatched"`
	Completed  int `json:"completed"`
	Stolen     int `json:"stolen,omitempty"`
}

// Tracker is a thread-safe job-state store fed by the runtime's event
// stream: call its Observe method from Config.Observer and query it from
// any goroutine while the runtime serves. This is what schedd's
// GET /v1/jobs/{id} and GET /v1/stats read from.
//
// Retention is unbounded by design: one JobInfo per submitted job — the
// tracker's only per-job structure — is kept for the life of the tracker
// (as is the master's own per-task bookkeeping), because the analysis
// surfaces — per-job lookup, full-population percentiles, the trace
// report — are defined over the whole history. That bounds a single
// runtime's service life by memory; an indefinitely running deployment
// should drain and restart its runtime at epoch boundaries. See
// DESIGN.md §9. Jobs are stored by ID in fixed-size pages, so growth
// allocates one page and never copies or re-scans the population held (a
// page is also the unit a retention window would age out).
type Tracker struct {
	mu           sync.RWMutex
	pages        []*[trackerPage]JobInfo
	counts       Counts
	firstSubmit  float64
	lastComplete float64
}

// trackerPage is the jobs per page: 80 KB, so the part-filled last page
// is noise beside even a small runtime's heap.
const trackerPage = 1 << 10

func (tr *Tracker) job(id int) *JobInfo { return &tr.pages[id/trackerPage][id%trackerPage] }

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Observe applies one runtime event and returns the job as it stands
// after it, so whatever sits behind the tracker on the event path (the
// flight journal, latency metrics) is handed the job rather than looking
// it up again.
func (tr *Tracker) Observe(ev Event) JobInfo {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for base := len(tr.pages) * trackerPage; base <= ev.Task; base += trackerPage {
		page := new([trackerPage]JobInfo)
		for i := range page {
			page[i] = JobInfo{ID: base + i, State: StateUnknown, Slave: -1}
		}
		tr.pages = append(tr.pages, page)
	}
	j := tr.job(ev.Task)
	switch ev.Kind {
	case EvSubmitted:
		j.State = StateQueued
		j.Submitted = ev.T
		if tr.counts.Submitted == 0 || ev.T < tr.firstSubmit {
			tr.firstSubmit = ev.T
		}
		tr.counts.Submitted++
	case EvSent:
		j.State = StateSent
		j.Slave = ev.Slave
		j.SendStart = ev.T
		tr.counts.Dispatched++
	case EvArrived:
		j.Arrive = ev.T
	case EvStarted:
		j.Start = ev.T
	case EvCompleted:
		j.State = StateDone
		j.Complete = ev.T
		tr.counts.Completed++
		if ev.T > tr.lastComplete {
			tr.lastComplete = ev.T
		}
	case EvRetracted:
		j.State = StateStolen
		j.StolenAt = ev.T
		tr.counts.Stolen++
	}
	return *j
}

// Snapshot is one internally consistent view of the tracked population:
// counts, latencies, the completion window and the completed records all
// describe the same instant.
type Snapshot struct {
	Counts    Counts
	Latencies []float64 // completed-job response times, job-ID order
	// First and Last bound the model-time window from first submission to
	// last completion; meaningful when Counts.Completed > 0.
	First, Last float64
	// Records are the completed jobs' schedule records in job-ID order.
	Records []core.Record
}

// Stats takes one consistent snapshot under a single lock acquisition —
// what reporting surfaces (schedd's GET /v1/stats) should use, so counts,
// throughput windows and trace records never disagree mid-run.
func (tr *Tracker) Stats() Snapshot {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	snap := Snapshot{
		Counts:    tr.counts,
		Latencies: make([]float64, 0, tr.counts.Completed),
		First:     tr.firstSubmit,
		Last:      tr.lastComplete,
		Records:   make([]core.Record, 0, tr.counts.Completed),
	}
	for id := 0; id < len(tr.pages)*trackerPage; id++ {
		if j := tr.job(id); j.State == StateDone {
			snap.Latencies = append(snap.Latencies, j.Latency())
			snap.Records = append(snap.Records, j.Record())
		}
	}
	return snap
}

// Job returns one job's info.
func (tr *Tracker) Job(id int) (JobInfo, bool) {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	if id < 0 || id >= len(tr.pages)*trackerPage || tr.job(id).State == StateUnknown {
		return JobInfo{}, false
	}
	return *tr.job(id), true
}

// CountsSnapshot returns the current population counters.
func (tr *Tracker) CountsSnapshot() Counts {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.counts
}

// Span returns the model-time window [first submission, last completion]
// observed so far, and whether any job completed.
func (tr *Tracker) Span() (first, last float64, ok bool) {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.firstSubmit, tr.lastComplete, tr.counts.Completed > 0
}
