package cluster

// Cross-shard work stealing. Sharding buys ingest throughput at the
// price of myopia: each master optimizes its slice in isolation, so a
// skewed placement (or a placement policy misled by stale load
// snapshots, or slaves dying under one master) leaves some ports
// saturated while others idle. The Rebalancer closes that gap from the
// outside: it periodically snapshots every shard's lock-free Load
// counters, asks a pluggable StealPolicy which queues should shed work
// to which, and executes the plan through Router.Migrate — retract from
// the source master's actor, re-admit at the destination, re-point the
// global job table, all without pausing ingest.
//
// Stealing takes the YOUNGEST pending work (the back of the source's
// FIFO): the jobs the owner is about to dispatch keep their position,
// and the migrated jobs are exactly the ones that would have waited
// longest — the classic work-stealing-deque discipline applied across
// masters. A cluster with the rebalancer disabled (policy "none" or no
// rebalancer at all) is bit-identical to the PR-5 cluster: the steal
// path adds no locks, no messages and no state transitions until the
// first Migrate call, which is what the steal-rate-0 conformance suite
// pins.

import (
	"fmt"
	"log/slog"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/live"
	"repro/internal/obs"
)

// StealDecision is one planned migration: move N pending jobs from
// shard From to shard To.
type StealDecision struct {
	From int `json:"from"`
	To   int `json:"to"`
	N    int `json:"n"`
}

// StealPolicy plans migrations from a consistent pair of snapshots:
// loads[i] is shard i's progress and rates[i] its estimated service
// rate in tasks per model second (0 for a shard with no live slaves).
// Plan must be a pure function of its arguments — the deterministic
// StealStudy replays policies on synthetic loads — and must never plan
// to move more than loads[i].QueueDepth() jobs out of shard i: only
// pending (undispatched) work can be retracted.
type StealPolicy interface {
	// Name returns the registry name.
	Name() string
	// Plan returns the migrations to attempt this pass, in execution
	// order. An empty plan means the cluster is balanced.
	Plan(loads []live.Load, rates []float64) []StealDecision
}

// Registered steal policy names.
const (
	// StealNone plans nothing: the explicit "stealing off" policy, so a
	// configuration can say so rather than omit the rebalancer.
	StealNone = "none"
	// StealThreshold balances queue depths: while the deepest and
	// shallowest pending queues differ by at least the slack (2), move
	// half the gap. Speed-oblivious — it equalizes backlog counts, not
	// completion times — which is the right default when shards are
	// homogeneous or speeds are unknown.
	StealThreshold = "threshold"
	// StealHetAware balances expected completion times: it moves jobs
	// from the shard with the largest outstanding/rate ratio to the one
	// with the smallest, sizing the move to equalize the two ratios.
	// Rates come from the same SO-LS estimator het-aware placement uses
	// (learned throughput once a shard has completed enough jobs,
	// nominal cost-vector rate before that, scaled by the live-slave
	// fraction), so a dead shard — rate 0, ECT infinite — is evacuated
	// entirely.
	StealHetAware = "het-aware"
)

// StealPolicyNames lists the registered policies in presentation order.
func StealPolicyNames() []string {
	return []string{StealNone, StealThreshold, StealHetAware}
}

// ValidateStealPolicy rejects unknown steal policy names.
func ValidateStealPolicy(name string) error {
	for _, n := range StealPolicyNames() {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("cluster: unknown steal policy %q (valid: %s)", name, strings.Join(StealPolicyNames(), ", "))
}

// NewStealPolicy constructs a registered policy by name.
func NewStealPolicy(name string) (StealPolicy, error) {
	switch name {
	case StealNone:
		return stealNone{}, nil
	case StealThreshold:
		return stealThreshold{slack: 2}, nil
	case StealHetAware:
		return stealHetAware{}, nil
	}
	return nil, ValidateStealPolicy(name)
}

type stealNone struct{}

func (stealNone) Name() string                                { return StealNone }
func (stealNone) Plan([]live.Load, []float64) []StealDecision { return nil }

type stealThreshold struct {
	// slack is the minimum queue-depth gap worth acting on. Below it the
	// cluster is considered balanced: with slack 2 a single-job seesaw
	// (depths 1 and 0) never ping-pongs.
	slack int
}

func (stealThreshold) Name() string { return StealThreshold }

// Plan repeatedly pairs the deepest pending queue with the shallowest
// live one and moves half the gap, simulating each move on its local
// copy of the depths so one pass can fix a multi-shard imbalance. The
// loop is bounded by the shard count: each iteration strictly shrinks
// the maximum gap, and k pairings are plenty for one pass — the next
// tick sees fresh loads anyway.
func (p stealThreshold) Plan(loads []live.Load, rates []float64) []StealDecision {
	k := len(loads)
	depth := make([]int, k)
	for i, l := range loads {
		depth[i] = l.QueueDepth()
	}
	var plan []StealDecision
	for iter := 0; iter < k; iter++ {
		hi, lo := -1, -1
		for i := 0; i < k; i++ {
			if depth[i] > 0 && (hi < 0 || depth[i] > depth[hi]) {
				hi = i
			}
			if rates[i] > 0 && (lo < 0 || depth[i] < depth[lo]) {
				lo = i
			}
		}
		if hi < 0 || lo < 0 || hi == lo || depth[hi]-depth[lo] < p.slack {
			break
		}
		n := (depth[hi] - depth[lo]) / 2
		if n <= 0 {
			break
		}
		plan = append(plan, StealDecision{From: hi, To: lo, N: n})
		depth[hi] -= n
		depth[lo] += n
	}
	return plan
}

type stealHetAware struct{}

func (stealHetAware) Name() string { return StealHetAware }

// Plan equalizes expected completion times. For the worst (largest
// outstanding/rate) and best shards, moving n jobs equalizes their ECTs
// when (o_hi - n)/r_hi = (o_lo + n)/r_lo, i.e.
//
//	n = (r_lo·o_hi − r_hi·o_lo) / (r_hi + r_lo)
//
// capped by the source's pending queue (dispatched work cannot move).
// A dead source (rate 0, infinite ECT) degenerates to n = o_hi: the
// formula evacuates its whole queue. Like the threshold policy, the
// pass simulates its own moves and is bounded by the shard count.
func (stealHetAware) Plan(loads []live.Load, rates []float64) []StealDecision {
	k := len(loads)
	out := make([]float64, k)
	depth := make([]int, k)
	for i, l := range loads {
		out[i] = float64(l.Outstanding())
		depth[i] = l.QueueDepth()
	}
	ect := func(i int) float64 {
		if rates[i] > 0 {
			return out[i] / rates[i]
		}
		if out[i] > 0 {
			return math.Inf(1)
		}
		return 0
	}
	var plan []StealDecision
	for iter := 0; iter < k; iter++ {
		hi, lo := -1, -1
		for i := 0; i < k; i++ {
			if depth[i] > 0 && (hi < 0 || ect(i) > ect(hi)) {
				hi = i
			}
			if rates[i] > 0 && (lo < 0 || ect(i) < ect(lo)) {
				lo = i
			}
		}
		if hi < 0 || lo < 0 || hi == lo || !(ect(hi) > ect(lo)) {
			break
		}
		var n int
		if rates[hi] <= 0 {
			n = depth[hi]
		} else {
			n = int((float64(rates[lo]*out[hi]) - float64(rates[hi]*out[lo])) / (rates[hi] + rates[lo]))
		}
		if n > depth[hi] {
			n = depth[hi]
		}
		if n <= 0 {
			break
		}
		plan = append(plan, StealDecision{From: hi, To: lo, N: n})
		out[hi] -= float64(n)
		out[lo] += float64(n)
		depth[hi] -= n
		depth[lo] += n
	}
	return plan
}

// RebalanceOnce runs one planning pass and executes it, returning how
// many jobs moved. Loads and rates are snapshotted once; each planned
// migration then goes through Migrate's own atomicity protocol (a
// decision may move fewer jobs than planned if the source dispatched
// work in the meantime — the next pass sees the new state).
func (r *Router) RebalanceOnce(policy StealPolicy) int {
	if policy == nil {
		return 0
	}
	loads := r.Loads()
	plan := policy.Plan(loads, r.stealRates(loads))
	if r.audit != nil && len(plan) > 0 {
		wall := time.Now().UnixNano()
		for _, d := range plan {
			r.audit.Record(obs.Decision{
				Wall:    wall,
				Kind:    obs.DecisionSteal,
				Policy:  policy.Name(),
				Job:     -1,
				From:    d.From,
				To:      d.To,
				Planned: d.N,
			})
		}
	}
	moved := 0
	for _, d := range plan {
		moved += r.Migrate(d.From, d.To, d.N)
	}
	return moved
}

// stealRates computes each shard's service rate for steal planning: the
// placement estimator's rate (learned throughput when warm, nominal
// cost-vector rate otherwise) scaled by the live-slave fraction. A
// shard with no live slaves rates 0 — never a steal destination, and
// an infinite-ECT source for the het-aware policy.
func (r *Router) stealRates(loads []live.Load) []float64 {
	rates := make([]float64, len(r.shards))
	for i, s := range r.shards {
		if lv := s.LiveSlaves(); lv > 0 {
			rates[i] = s.serviceRate(loads[i]) * float64(lv) / float64(s.pl.M())
		}
	}
	return rates
}

// Rebalancer periodically runs RebalanceOnce against one router. It is
// entirely external to the serving path: stopping it (or never starting
// it) leaves the cluster exactly as PR 5 built it.
type Rebalancer struct {
	r        *Router
	policy   StealPolicy
	interval time.Duration
	logger   *slog.Logger // nil: no logging

	passes atomic.Int64
	moved  atomic.Int64
	// lastPass is the wall time (Unix nanoseconds) the most recent
	// planning pass finished; 0 until the first pass. GET /readyz
	// reports its age so a wedged rebalancer loop is visible.
	lastPass atomic.Int64

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	started bool
}

// NewRebalancer builds a rebalancer over the router. interval <= 0
// defaults to 50ms — frequent enough to matter at service time scales,
// rare enough that the Load polling cost is noise.
func NewRebalancer(r *Router, policy StealPolicy, interval time.Duration) *Rebalancer {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	return &Rebalancer{r: r, policy: policy, interval: interval}
}

// Policy returns the policy's name.
func (b *Rebalancer) Policy() string { return b.policy.Name() }

// Interval returns the pass interval.
func (b *Rebalancer) Interval() time.Duration { return b.interval }

// Passes returns how many planning passes have run.
func (b *Rebalancer) Passes() int64 { return b.passes.Load() }

// Moved returns how many jobs the rebalancer has migrated.
func (b *Rebalancer) Moved() int64 { return b.moved.Load() }

// SetLogger wires structured logging: each pass that moves work is
// logged at Debug with the pass number and jobs moved. Call before
// Start; a nil logger (the default) logs nothing.
func (b *Rebalancer) SetLogger(l *slog.Logger) { b.logger = l }

// LastPass returns when the most recent planning pass finished, and
// false before the first pass.
func (b *Rebalancer) LastPass() (time.Time, bool) {
	ns := b.lastPass.Load()
	if ns == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

// Start launches the rebalancing loop. Idempotent.
func (b *Rebalancer) Start() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.started {
		return
	}
	b.started = true
	b.stop = make(chan struct{})
	b.done = make(chan struct{})
	go b.loop(b.stop, b.done)
}

// Stop halts the loop and blocks until the in-flight pass (if any) has
// finished, so callers can Drain the router immediately after. Safe to
// call more than once, or without Start.
func (b *Rebalancer) Stop() {
	b.mu.Lock()
	if !b.started {
		b.mu.Unlock()
		return
	}
	b.started = false
	stop, done := b.stop, b.done
	b.mu.Unlock()
	close(stop)
	<-done
}

func (b *Rebalancer) loop(stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(b.interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			moved := b.r.RebalanceOnce(b.policy)
			b.passes.Add(1)
			b.moved.Add(int64(moved))
			b.lastPass.Store(time.Now().UnixNano())
			if moved > 0 && b.logger != nil {
				b.logger.Debug("steal pass moved work",
					"policy", b.policy.Name(),
					"pass", b.passes.Load(),
					"moved", moved)
			}
		}
	}
}
