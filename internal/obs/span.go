package obs

import "repro/internal/core"

// Span decomposition of a job's lifecycle. The one-port model gives the
// lifecycle a fixed shape — a job is released, waits for the master's
// port, occupies it for the transfer, sits at the slave until the
// computation starts, computes, completes — so a completed schedule
// record decomposes exactly into four contiguous stages:
//
//	queue:      Release   → SendStart  (waiting for the one port)
//	transfer:   SendStart → Arrive     (occupying the port)
//	slave-wait: Arrive    → Start      (at the slave, not yet computing)
//	service:    Start     → Complete   (computing)
//
// Nothing here reads a clock: a span is a pure function of the record's
// timestamps, which themselves come from the runtime's pluggable clock.
// That is the whole determinism argument — under the virtual clock the
// records are bit-identical to the discrete-event engine's (the PR-3
// conformance contract), so the spans derived from them are too, and
// the conformance suite extends to traces with no new mechanism.

// Stage names, in lifecycle order.
const (
	StageQueue     = "queue"
	StageTransfer  = "transfer"
	StageSlaveWait = "slave-wait"
	StageService   = "service"
)

// StageNames lists the stages in lifecycle order.
func StageNames() []string {
	return []string{StageQueue, StageTransfer, StageSlaveWait, StageService}
}

// Stage is one contiguous interval of a job's lifecycle. Times are in
// the clock domain of the record the span was derived from (model
// seconds for runtime records).
type Stage struct {
	Name  string  `json:"name"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Duration returns the stage length.
func (s Stage) Duration() float64 { return s.End - s.Start }

// Span is one job's complete lifecycle: the root interval plus its
// child stages, in order — a depth-one span tree, which is all the
// one-port lifecycle needs.
type Span struct {
	Job    int     `json:"job"`
	Slave  int     `json:"slave"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Stages []Stage `json:"stages"`
}

// FromRecord decomposes one completed schedule record into its span.
func FromRecord(rec core.Record) Span {
	return Span{
		Job:   int(rec.Task),
		Slave: rec.Slave,
		Start: rec.Release,
		End:   rec.Complete,
		Stages: []Stage{
			{Name: StageQueue, Start: rec.Release, End: rec.SendStart},
			{Name: StageTransfer, Start: rec.SendStart, End: rec.Arrive},
			{Name: StageSlaveWait, Start: rec.Arrive, End: rec.Start},
			{Name: StageService, Start: rec.Start, End: rec.Complete},
		},
	}
}

// FromRecords decomposes a completed schedule into its span stream, in
// record order. The output is deterministic: same records, same bytes.
func FromRecords(recs []core.Record) []Span {
	out := make([]Span, len(recs))
	for i, rec := range recs {
		out[i] = FromRecord(rec)
	}
	return out
}

// StageBreakdown is the per-stage latency decomposition over a set of
// completed jobs: for each lifecycle stage, the mean and maximum
// duration, in the records' clock domain. This is what GET /v1/stats
// surfaces (rescaled to wall seconds): it answers "is latency queueing,
// the port, or service?" — the decomposition the one-port model makes
// meaningful.
type StageBreakdown struct {
	Jobs  int          `json:"jobs"`
	Queue StageSummary `json:"queue"`
	// Transfer is port occupancy: the master can ship nothing else
	// while a job is in this stage.
	Transfer  StageSummary `json:"transfer"`
	SlaveWait StageSummary `json:"slave_wait"`
	Service   StageSummary `json:"service"`
}

// StageSummary aggregates one stage across jobs.
type StageSummary struct {
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// Breakdown computes the per-stage decomposition of completed records,
// taken as one sample over every part in order (schedd passes one part
// per shard for the cluster view). Zero records yield the zero breakdown.
func Breakdown(parts ...[]core.Record) StageBreakdown {
	var b StageBreakdown
	for _, recs := range parts {
		b.Jobs += len(recs)
	}
	if b.Jobs == 0 {
		return b
	}
	acc := func(s *StageSummary, d float64) {
		s.Mean += d
		if d > s.Max {
			s.Max = d
		}
	}
	for _, recs := range parts {
		for _, rec := range recs {
			acc(&b.Queue, rec.SendStart-rec.Release)
			acc(&b.Transfer, rec.Arrive-rec.SendStart)
			acc(&b.SlaveWait, rec.Start-rec.Arrive)
			acc(&b.Service, rec.Complete-rec.Start)
		}
	}
	n := float64(b.Jobs)
	b.Queue.Mean /= n
	b.Transfer.Mean /= n
	b.SlaveWait.Mean /= n
	b.Service.Mean /= n
	return b
}

// Scale returns the breakdown with every duration divided by scale —
// how schedd converts model seconds to wall seconds (scale =
// ClockScale).
func (b StageBreakdown) Scale(scale float64) StageBreakdown {
	if scale == 1 || scale == 0 {
		return b
	}
	div := func(s StageSummary) StageSummary {
		return StageSummary{Mean: s.Mean / scale, Max: s.Max / scale}
	}
	b.Queue = div(b.Queue)
	b.Transfer = div(b.Transfer)
	b.SlaveWait = div(b.SlaveWait)
	b.Service = div(b.Service)
	return b
}
