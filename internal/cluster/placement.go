package cluster

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/live"
)

// Placement chooses a shard for each incoming job. Implementations are
// owned by one Router, which serializes every PickBatch under its
// submission lock — they need no internal synchronization but must be
// cheap: PickBatch runs once per batch on the ingest hot path.
type Placement interface {
	// Name returns the registry name.
	Name() string

	// PickBatch places count jobs at once (a single job is a batch of
	// one), filling out[:count] with shard indices. loads[i] is shard i's
	// progress snapshot as of the top of the batch; staged[i] counts jobs
	// of the batch already placed on shard i — zero on entry, advanced as
	// the policy goes — so load-sensitive policies see their own batch's
	// pressure instead of dog-piling one momentarily-idle shard. Over an
	// unchanged state, PickBatch(n) places exactly as n successive
	// PickBatch(1) calls carrying staged forward would; a batch only
	// amortizes what those would recompute (het-aware takes each shard's
	// tracker lock once per batch, not once per job).
	//
	// scores, when non-nil, is a caller-owned buffer of len(shards) the
	// policy fills once with its per-shard ranking (lower is better) as
	// of the top of the batch — every shard's score, chosen and rejected
	// alike, for one audited decision amortized over count jobs. Policies
	// that rank nothing (round-robin, pinned) leave it untouched; the
	// router passes nil when auditing is off, so scoring costs nothing on
	// unaudited ingest.
	PickBatch(shards []*Shard, loads []live.Load, staged []int, spec live.JobSpec, count int, out []int, scores []float64)
}

// Registered placement policy names.
const (
	// PlacementRoundRobin cycles through shards in order: oblivious to
	// load and speed, maximally cheap, and the identity on one shard —
	// the Shards=1 conformance configuration.
	PlacementRoundRobin = "round-robin"
	// PlacementLeastLoaded sends each job to the shard with the fewest
	// outstanding (accepted, uncompleted) jobs, read from the runtime's
	// Load snapshot. Adapts to heterogeneity indirectly: slow shards
	// accumulate backlog and stop receiving work.
	PlacementLeastLoaded = "least-loaded"
	// PlacementHetAware sends each job to the shard with the smallest
	// expected completion time: backlog divided by the shard's throughput
	// rate, estimated from its per-task cost vectors — and, once the
	// shard has observed enough completions, from its measured
	// throughput instead (speed-oblivious in the SO-LS sense: learned
	// rates override nominal ones, so drifted or miscalibrated platforms
	// still place correctly).
	PlacementHetAware = "het-aware"
	// PlacementPinned routes every job to the lowest-indexed live shard
	// (shard 0 while it has live slaves). It is deliberately
	// pathological: a diagnostic policy that concentrates the entire
	// ingest on one master so the other k-1 ports idle — the adversarial
	// skew the rebalancer benchmarks and the stealing e2e tests use as
	// their worst case. Do not deploy it as a real routing policy.
	PlacementPinned = "pinned"
)

// PlacementNames lists the registered policies in presentation order.
func PlacementNames() []string {
	return []string{PlacementRoundRobin, PlacementLeastLoaded, PlacementHetAware, PlacementPinned}
}

// ValidatePlacement rejects unknown placement names.
func ValidatePlacement(name string) error {
	for _, n := range PlacementNames() {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("cluster: unknown placement %q (valid: %s)", name, strings.Join(PlacementNames(), ", "))
}

// NewPlacement constructs a registered policy by name.
func NewPlacement(name string) (Placement, error) {
	switch name {
	case PlacementRoundRobin:
		return &roundRobin{}, nil
	case PlacementLeastLoaded:
		return leastLoaded{}, nil
	case PlacementHetAware:
		return &hetAware{}, nil
	case PlacementPinned:
		return pinned{}, nil
	}
	return nil, ValidatePlacement(name)
}

// Every policy skips shards whose declared-live slave count (see
// Router.SetSlaveLive) is zero: a dead shard accepts jobs into a queue
// nothing will ever drain, so placement must never target one while any
// alternative exists. When EVERY shard is down the filter is dropped —
// a total blackout queues jobs rather than wedging ingest, and the
// rebalancer re-homes them when shards come back.

type roundRobin struct{ next int }

func (p *roundRobin) Name() string { return PlacementRoundRobin }

// PickBatch cycles through the shards, skipping dead ones; when every
// shard is down the skip wraps back to where it began — the blind cycle.
func (p *roundRobin) PickBatch(shards []*Shard, _ []live.Load, staged []int, _ live.JobSpec, count int, out []int, _ []float64) {
	k := len(shards)
	for n := 0; n < count; n++ {
		s := p.next
		for off := 0; off < k && shards[s].LiveSlaves() == 0; off++ {
			if s++; s == k {
				s = 0
			}
		}
		if p.next = s + 1; p.next == k {
			p.next = 0
		}
		out[n] = s
		staged[s]++
	}
}

type leastLoaded struct{}

func (leastLoaded) Name() string { return PlacementLeastLoaded }

// PickBatch runs the argmin over outstanding + staged once per job with
// the staged counters advanced in place — Outstanding() is pure
// arithmetic on the batch-top snapshot.
func (leastLoaded) PickBatch(shards []*Shard, loads []live.Load, staged []int, _ live.JobSpec, count int, out []int, scores []float64) {
	if scores != nil {
		for i := range loads {
			scores[i] = float64(loads[i].Outstanding() + staged[i])
		}
	}
	for n := 0; n < count; n++ {
		best, bestLoad := -1, 0
		for pass := 0; pass < 2 && best < 0; pass++ {
			for i := range loads {
				if pass == 0 && shards[i].LiveSlaves() == 0 {
					continue
				}
				load := loads[i].Outstanding() + staged[i]
				if best < 0 || load < bestLoad {
					best, bestLoad = i, load
				}
			}
		}
		out[n] = best
		staged[best]++
	}
}

// hetAware carries a per-batch scratch of learned service rates; the
// Router serializes all placement under its lock, so the scratch needs
// no synchronization.
type hetAware struct{ rates []float64 }

func (*hetAware) Name() string { return PlacementHetAware }

// PickBatch minimizes expected completion time (outstanding + 1) /
// rate_i per job. The job's own scale knobs multiply its cost
// identically on every shard, so they never change the argmin and are
// ignored. Ties break on the lowest shard index, keeping placement
// deterministic for a given load state. serviceRate takes the shard
// tracker's lock, so every rate is sampled once at the top of the batch
// and count jobs then place against pure arithmetic; rates drift only
// with completions, which the batch-top snapshot does not see either.
func (h *hetAware) PickBatch(shards []*Shard, loads []live.Load, staged []int, _ live.JobSpec, count int, out []int, scores []float64) {
	k := len(shards)
	if cap(h.rates) < k {
		h.rates = make([]float64, k)
	}
	rates := h.rates[:k]
	for i, sh := range shards {
		rates[i] = sh.serviceRate(loads[i])
	}
	if scores != nil {
		for i := range shards {
			scores[i] = float64(loads[i].Outstanding()+staged[i]+1) / rates[i]
		}
	}
	for n := 0; n < count; n++ {
		best, bestECT := -1, 0.0
		for pass := 0; pass < 2 && best < 0; pass++ {
			for i, sh := range shards {
				if pass == 0 && sh.LiveSlaves() == 0 {
					continue
				}
				ect := float64(loads[i].Outstanding()+staged[i]+1) / rates[i]
				if best < 0 || ect < bestECT {
					best, bestECT = i, ect
				}
			}
		}
		out[n] = best
		staged[best]++
	}
}

type pinned struct{}

func (pinned) Name() string { return PlacementPinned }

// PickBatch pins the whole batch on the first live shard (shard 0 when
// every shard is down), resolved once per batch.
func (pinned) PickBatch(shards []*Shard, _ []live.Load, staged []int, _ live.JobSpec, count int, out []int, _ []float64) {
	s := 0
	for i := range shards {
		if shards[i].LiveSlaves() > 0 {
			s = i
			break
		}
	}
	for n := 0; n < count; n++ {
		out[n] = s
	}
	staged[s] += count
}

// serviceRate is the shard's estimated sustainable throughput in tasks
// per model second, given a progress snapshot taken at the top of the
// batch. The nominal estimate comes from the cost vectors; once the
// shard has completed at least 2·m jobs over a positive span, the
// observed completion rate replaces it (learned costs à la SO-LS — the
// cluster keeps placing sensibly when actual speeds drift from the
// configured platform). The completion count was sampled BEFORE the
// span is read here, and the span only grows, so the measured rate can
// only underestimate — placement errs conservative, never toward a
// shard that merely looked fast for an instant.
func (s *Shard) serviceRate(load live.Load) float64 {
	if load.Completed >= 2*s.pl.M() {
		if first, last, ok := s.Tracker().Span(); ok && last > first {
			return float64(load.Completed) / (last - first)
		}
	}
	return s.nominalRate
}

// NominalRate estimates a shard's sustainable task throughput from its
// cost vectors under the one-port model: computation can absorb Σ 1/p_j
// tasks per second; the port, feeding slave j a share of tasks
// proportional to its compute rate, needs Σ f_j·c_j seconds per task.
// The sustainable rate is the smaller of the two. Exported so synthetic
// studies (experiment.StealStudy) can feed the same rates the router
// computes into StealPolicy.Plan without building runtimes.
func NominalRate(pl core.Platform) float64 {
	computeRate := 0.0
	for _, p := range pl.P {
		computeRate += 1 / p
	}
	portTimePerTask := 0.0
	for j := range pl.C {
		f := (1 / pl.P[j]) / computeRate
		portTimePerTask += f * pl.C[j]
	}
	return min(computeRate, 1/portTimePerTask)
}
