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
// tree, Snapshot.Records and Result.Schedule all come through here.
// Complete only once the job is done.
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

// Tracker is a thread-safe job-state store. Every Runtime owns one, fed
// by its master before Config.Observer sees an event (Runtime.Tracker),
// and it is the one record of each job's lifecycle there: the master's
// own books keep only unfinished jobs, and Result.Schedule is read off
// the tracker. A standalone tracker, fed through Observe, serves the
// same queries. This is what schedd's GET /v1/jobs/{id} and GET
// /v1/stats read from.
//
// Retention is one 72-byte entry per submitted job for the life of the
// tracker, because the analysis surfaces — per-job lookup,
// full-population percentiles, the trace report — are defined over the
// whole history. That bounds a single runtime's service life by memory;
// an indefinitely running deployment should drain and restart its
// runtime at epoch boundaries. See DESIGN.md §9. Entries hold no
// pointers, so the GC never scans them, and they are stored by ID in
// fixed-size pages, so growth allocates one page and never copies or
// re-scans the population held (a page is also the unit a retention
// window would age out). JobInfo is built from an entry on read.
type Tracker struct {
	mu           sync.RWMutex
	pages        []*[trackerPage]jobEntry
	counts       Counts
	firstSubmit  float64
	lastComplete float64
}

// trackerPage is the jobs per page: 72 KB, so the part-filled last page
// is noise beside even a small runtime's heap.
const trackerPage = 1 << 10

// jobState is a job's state as an entry stores it; stateNames spells it.
type jobState uint8

const (
	jobUnknown jobState = iota
	jobQueued
	jobSent
	jobDone
	jobStolen
)

var stateNames = [...]string{
	jobUnknown: StateUnknown,
	jobQueued:  StateQueued,
	jobSent:    StateSent,
	jobDone:    StateDone,
	jobStolen:  StateStolen,
}

// jobEntry is one job's lifecycle as the tracker stores it. The zero
// entry is a job never seen; the scales are the submission's, exactly as
// given (zero means 1).
type jobEntry struct {
	state                jobState
	slave                int32 // slave index + 1; 0 until dispatch
	submitted, sendStart float64
	arrive, start        float64
	complete, stolenAt   float64
	commScale, compScale float64
}

// info builds the JobInfo of the entry for job id.
func (e *jobEntry) info(id int) JobInfo {
	return JobInfo{
		ID:        id,
		State:     stateNames[e.state],
		Slave:     int(e.slave) - 1,
		Submitted: e.submitted,
		SendStart: e.sendStart,
		Arrive:    e.arrive,
		Start:     e.start,
		Complete:  e.complete,
		StolenAt:  e.stolenAt,
	}
}

func (tr *Tracker) entry(id int) *jobEntry { return &tr.pages[id/trackerPage][id%trackerPage] }

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Observe applies one runtime event and returns the job as it stands
// after it, so whatever sits behind the tracker on the event path (the
// flight journal, latency metrics) is handed the job rather than looking
// it up again.
func (tr *Tracker) Observe(ev Event) JobInfo {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.apply(ev, JobSpec{}).info(ev.Task)
}

// record applies one event from the owning runtime's master; a
// submission also stores the job's scales.
func (tr *Tracker) record(ev Event, spec JobSpec) {
	tr.mu.Lock()
	tr.apply(ev, spec)
	tr.mu.Unlock()
}

// apply applies one event and returns the job's entry. Caller holds mu.
func (tr *Tracker) apply(ev Event, spec JobSpec) *jobEntry {
	for len(tr.pages)*trackerPage <= ev.Task {
		tr.pages = append(tr.pages, new([trackerPage]jobEntry))
	}
	e := tr.entry(ev.Task)
	switch ev.Kind {
	case EvSubmitted:
		e.state = jobQueued
		e.submitted = ev.T
		e.commScale, e.compScale = spec.CommScale, spec.CompScale
		if tr.counts.Submitted == 0 || ev.T < tr.firstSubmit {
			tr.firstSubmit = ev.T
		}
		tr.counts.Submitted++
	case EvSent:
		e.state = jobSent
		e.slave = int32(ev.Slave) + 1
		e.sendStart = ev.T
		tr.counts.Dispatched++
	case EvArrived:
		e.arrive = ev.T
	case EvStarted:
		e.start = ev.T
	case EvCompleted:
		e.state = jobDone
		e.complete = ev.T
		tr.counts.Completed++
		if ev.T > tr.lastComplete {
			tr.lastComplete = ev.T
		}
	case EvRetracted:
		e.state = jobStolen
		e.stolenAt = ev.T
		tr.counts.Stolen++
	}
	return e
}

// schedule assembles the schedule of jobs [0, Submitted) served on pl:
// each task as submitted, and its record. It is Result.Schedule for the
// owning runtime, whose job IDs are dense.
func (tr *Tracker) schedule(pl core.Platform) core.Schedule {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	n := tr.counts.Submitted
	tasks := make([]core.Task, n)
	records := make([]core.Record, n)
	for id := range n {
		e := tr.entry(id)
		tasks[id] = core.Task{ID: core.TaskID(id), Release: e.submitted, CommScale: e.commScale, CompScale: e.compScale}
		records[id] = e.info(id).Record()
	}
	return core.Schedule{Instance: core.Instance{Platform: pl, Tasks: tasks}, Records: records}
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
		if e := tr.entry(id); e.state == jobDone {
			j := e.info(id)
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
	if id < 0 || id >= len(tr.pages)*trackerPage || tr.entry(id).state == jobUnknown {
		return JobInfo{}, false
	}
	return tr.entry(id).info(id), true
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
