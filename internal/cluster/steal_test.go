package cluster

// The work-stealing correctness suite. Three layers of contract:
//
//  1. Policy planning is pure and sane (unit tests on synthetic loads —
//     the same replay surface the deterministic StealStudy uses).
//  2. Migration preserves every job exactly once under any interleaving
//     of submissions, steals and drain (property + race tests; run
//     under -race in CI).
//  3. A rebalancer that never fires — or fires against a virtual-clock
//     cluster — leaves the PR-5 behavior bit-identical (steal-rate-0
//     conformance).

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// --- policy registry -------------------------------------------------

func TestStealPolicyRegistry(t *testing.T) {
	names := StealPolicyNames()
	if len(names) != 3 || names[0] != StealNone {
		t.Fatalf("policy names %v: want none first (base case for studies)", names)
	}
	for _, name := range names {
		if err := ValidateStealPolicy(name); err != nil {
			t.Fatalf("registered policy %q rejected: %v", name, err)
		}
		p, err := NewStealPolicy(name)
		if err != nil || p.Name() != name {
			t.Fatalf("NewStealPolicy(%q) = %v, %v", name, p, err)
		}
	}
	if err := ValidateStealPolicy("aggressive"); err == nil {
		t.Fatal("unknown policy validated")
	}
	if _, err := NewStealPolicy("aggressive"); err == nil {
		t.Fatal("unknown policy constructed")
	}
}

func TestStealNonePlansNothing(t *testing.T) {
	p, _ := NewStealPolicy(StealNone)
	loads := []live.Load{{Submitted: 100, Admitted: 100}, {}}
	if plan := p.Plan(loads, []float64{1, 1}); len(plan) != 0 {
		t.Fatalf("none planned %v", plan)
	}
}

// pendingLoads builds synthetic snapshots with the given queue depths
// and nothing dispatched — the worst-case burst the fixpoint study uses.
func pendingLoads(depths ...int) []live.Load {
	loads := make([]live.Load, len(depths))
	for i, n := range depths {
		loads[i] = live.Load{Submitted: n, Admitted: n}
	}
	return loads
}

// applyPlan executes a plan on a local copy of the depths, failing the
// test on any decision that is out of range, self-directed, oversized
// for its source, or aimed at a dead shard.
func applyPlan(t *testing.T, plan []StealDecision, depths []int, rates []float64) []int {
	t.Helper()
	out := append([]int(nil), depths...)
	for _, d := range plan {
		if d.From < 0 || d.From >= len(out) || d.To < 0 || d.To >= len(out) || d.From == d.To {
			t.Fatalf("malformed decision %+v", d)
		}
		if d.N <= 0 || d.N > out[d.From] {
			t.Fatalf("decision %+v oversteals (source holds %d)", d, out[d.From])
		}
		if rates[d.To] <= 0 {
			t.Fatalf("decision %+v targets a dead shard", d)
		}
		out[d.From] -= d.N
		out[d.To] += d.N
	}
	return out
}

func TestStealThresholdPlan(t *testing.T) {
	p, _ := NewStealPolicy(StealThreshold)

	// A fully skewed 4-shard burst balances to within the slack in one
	// pass, conserving the total.
	rates := []float64{1, 1, 1, 1}
	final := applyPlan(t, p.Plan(pendingLoads(10, 0, 0, 0), rates), []int{10, 0, 0, 0}, rates)
	total, lo, hi := 0, final[0], final[0]
	for _, n := range final {
		total += n
		if n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if total != 10 {
		t.Fatalf("plan does not conserve jobs: %v", final)
	}
	if hi-lo >= 2 {
		t.Fatalf("one pass left spread %d (depths %v), want < slack", hi-lo, final)
	}

	// Below the slack nothing moves: a single-job seesaw never ping-pongs.
	if plan := p.Plan(pendingLoads(1, 0), []float64{1, 1}); len(plan) != 0 {
		t.Fatalf("sub-slack gap planned %v", plan)
	}
	if plan := p.Plan(pendingLoads(2, 0), []float64{1, 1}); len(plan) != 1 || plan[0] != (StealDecision{From: 0, To: 1, N: 1}) {
		t.Fatalf("gap-2 plan %v, want one 1-job move", plan)
	}

	// A dead shard (rate 0) is never a destination, even when it is the
	// shallowest queue.
	if plan := p.Plan(pendingLoads(10, 0), []float64{1, 0}); len(plan) != 0 {
		t.Fatalf("planned into a dead shard: %v", plan)
	}

	// Dispatched work is untouchable: only the pending remainder moves.
	loads := []live.Load{{Submitted: 10, Admitted: 10, Dispatched: 9}, {}}
	for _, d := range p.Plan(loads, []float64{1, 1}) {
		if d.From == 0 && d.N > 1 {
			t.Fatalf("planned %d jobs out of a depth-1 queue", d.N)
		}
	}
}

func TestStealHetAwarePlan(t *testing.T) {
	p, _ := NewStealPolicy(StealHetAware)

	// ECT equalization: 12 jobs on a rate-1 shard next to an idle rate-2
	// shard → n = (2·12 − 1·0)/(1+2) = 8 moves, leaving ECT 4 vs 4.
	plan := p.Plan(pendingLoads(12, 0), []float64{1, 2})
	if len(plan) != 1 || plan[0] != (StealDecision{From: 0, To: 1, N: 8}) {
		t.Fatalf("equalization plan %v, want one 8-job move 0→1", plan)
	}

	// The move is capped by the pending queue: same outstanding, but 6 of
	// the 12 already dispatched.
	loads := []live.Load{{Submitted: 12, Admitted: 12, Dispatched: 6}, {}}
	plan = p.Plan(loads, []float64{1, 2})
	if len(plan) != 1 || plan[0].N != 6 {
		t.Fatalf("capped plan %v, want a 6-job move", plan)
	}

	// A dead shard with backlog has infinite ECT: its queue is evacuated
	// entirely, regardless of how the destination compares.
	plan = p.Plan(pendingLoads(5, 0), []float64{0, 1})
	if len(plan) != 1 || plan[0] != (StealDecision{From: 0, To: 1, N: 5}) {
		t.Fatalf("evacuation plan %v, want all 5 jobs 0→1", plan)
	}

	// Two dead shards: backlog has nowhere to go, so nothing is planned
	// (never a rate-0 destination).
	if plan := p.Plan(pendingLoads(5, 3), []float64{0, 0}); len(plan) != 0 {
		t.Fatalf("planned with no live destination: %v", plan)
	}

	// Balanced ECTs plan nothing.
	if plan := p.Plan(pendingLoads(4, 8), []float64{1, 2}); len(plan) != 0 {
		t.Fatalf("balanced cluster planned %v", plan)
	}
}

// --- migration through a real cluster --------------------------------

// stealCluster builds a started cluster whose jobs cost ~5ms of wall
// time each (c=5, p=5 at speedup 1000): slow enough that a burst is
// still pending when a steal lands, fast enough to drain in tens of ms.
func stealCluster(t *testing.T, m, shards int, placement string) *Router {
	t.Helper()
	c := make([]float64, m)
	p := make([]float64, m)
	for i := range c {
		c[i], p[i] = 5, 5
	}
	r, err := New(Config{
		Platform:     core.NewPlatform(c, p),
		NewScheduler: newLS,
		Shards:       shards,
		Placement:    placement,
		World:        func(int) live.World { return live.NewRealTime(1000) },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	return r
}

func TestMigrateMovesPendingJobs(t *testing.T) {
	r := stealCluster(t, 4, 2, PlacementPinned)
	const jobs = 20
	ids, err := submitIDs(r, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, gid := range ids {
		if s, _ := r.ShardOf(gid); s != 0 {
			t.Fatalf("pinned placement put job %d on shard %d", gid, s)
		}
	}
	waitIntake(r)

	moved := r.Migrate(0, 1, 8)
	if moved == 0 {
		t.Fatal("migration moved nothing out of a 20-job backlog")
	}
	if r.Stolen() != moved {
		t.Fatalf("Stolen() = %d, Migrate returned %d", r.Stolen(), moved)
	}
	// Every global ID still resolves mid-migration — never "unknown".
	for _, gid := range ids {
		if _, ok := r.Job(gid); !ok {
			t.Fatalf("job %d unresolvable after migration", gid)
		}
	}

	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}

	// Every job done exactly once, served by a slave its final shard owns.
	onShard1 := 0
	for _, gid := range ids {
		info, ok := r.Job(gid)
		if !ok || info.State != live.StateDone {
			t.Fatalf("job %d after drain: ok=%v %+v", gid, ok, info)
		}
		si, _ := r.ShardOf(gid)
		if si == 1 {
			onShard1++
		}
		owns := false
		for _, s := range r.Shards()[si].Slaves() {
			if s == info.Slave {
				owns = true
			}
		}
		if !owns {
			t.Fatalf("job %d ran on slave %d, not owned by its shard %d", gid, info.Slave, si)
		}
	}
	if onShard1 != moved {
		t.Fatalf("%d jobs ended on shard 1, %d migrated", onShard1, moved)
	}

	// Per-shard accounting: the source retracted what moved, the
	// destination absorbed it, and net populations sum to the total.
	loads := r.Loads()
	if loads[0].Retracted != moved || loads[0].Completed != jobs-moved {
		t.Fatalf("source load %+v after migrating %d", loads[0], moved)
	}
	if loads[1].Submitted != moved || loads[1].Completed != moved {
		t.Fatalf("destination load %+v after migrating %d", loads[1], moved)
	}
	net := 0
	for _, l := range loads {
		if l.Completed+l.Retracted != l.Submitted {
			t.Fatalf("shard identity broken: %+v", l)
		}
		net += l.Submitted - l.Retracted
	}
	if net != jobs {
		t.Fatalf("net population %d, want %d", net, jobs)
	}
}

func TestMigrateRefusals(t *testing.T) {
	r := stealCluster(t, 4, 2, PlacementPinned)
	if _, err := submitIDs(r, 5); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ from, to, n int }{
		{0, 0, 3},  // self-steal
		{0, 1, 0},  // nothing asked
		{0, 1, -2}, // negative
		{-1, 1, 3}, // out of range
		{0, 9, 3},  // out of range
	} {
		if got := r.Migrate(c.from, c.to, c.n); got != 0 {
			t.Fatalf("Migrate(%d,%d,%d) = %d, want 0", c.from, c.to, c.n, got)
		}
	}
	if r.Stolen() != 0 {
		t.Fatalf("refused migrations counted: %d", r.Stolen())
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := r.Migrate(0, 1, 3); got != 0 {
		t.Fatalf("Migrate after drain = %d, want 0", got)
	}
}

// TestMigrationInvariants is the property test: randomized interleavings
// of concurrent submissions, migrations, lookups and a drain that lands
// mid-storm (seeded, so failures replay), after which no job may be
// lost, duplicated or double-dispatched. Every re-admission goes through
// the destination's intake with the drain sources' local-ID prediction
// live, so a stolen job delivered any other way fails the drain. While
// the storm runs, every ID a submission has returned must resolve
// through Job and ShardOf — never "unknown", whichever shard holds it.
// Run under -race this also exercises the router table against the
// steal path.
func TestMigrationInvariants(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := stealCluster(t, 6, 3, PlacementPinned)

			var mu sync.Mutex
			var all []int
			issued := func(rng *rand.Rand) (int, bool) {
				mu.Lock()
				defer mu.Unlock()
				if len(all) == 0 {
					return 0, false
				}
				return all[rng.Intn(len(all))], true
			}
			var wg sync.WaitGroup
			// Two submitters race three thieves and two readers; the drain
			// lands part-way through.
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(rng *rand.Rand) {
					defer wg.Done()
					for b := 0; b < 8; b++ {
						ids, err := submitIDs(r, 1+rng.Intn(10))
						if err == ErrDraining {
							return
						}
						if err != nil {
							t.Errorf("submit: %v", err)
							return
						}
						mu.Lock()
						all = append(all, ids...)
						mu.Unlock()
						time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
					}
				}(rand.New(rand.NewSource(rng.Int63())))
			}
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(rng *rand.Rand) {
					defer wg.Done()
					for i := 0; i < 12; i++ {
						from, to := rng.Intn(3), rng.Intn(3)
						r.Migrate(from, to, 1+rng.Intn(6))
						time.Sleep(time.Duration(rng.Intn(2)) * time.Millisecond)
					}
				}(rand.New(rand.NewSource(rng.Int63())))
			}
			stop := make(chan struct{})
			var readers sync.WaitGroup
			for w := 0; w < 2; w++ {
				readers.Add(1)
				go func(rng *rand.Rand) {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						gid, ok := issued(rng)
						if !ok {
							runtime.Gosched()
							continue
						}
						if _, ok := r.Job(gid); !ok {
							t.Errorf("Job(%d) unknown for an issued ID", gid)
							return
						}
						if _, ok := r.ShardOf(gid); !ok {
							t.Errorf("ShardOf(%d) unknown for an issued ID", gid)
							return
						}
					}
				}(rand.New(rand.NewSource(rng.Int63())))
			}
			time.Sleep(time.Duration(5+rng.Intn(10)) * time.Millisecond)
			if err := r.Drain(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			close(stop)
			readers.Wait()

			if len(all) != r.Jobs() {
				t.Fatalf("routed %d, submitted %d", r.Jobs(), len(all))
			}
			for _, gid := range all {
				info, ok := r.Job(gid)
				if !ok || info.State != live.StateDone {
					t.Fatalf("job %d: ok=%v %+v", gid, ok, info)
				}
			}
			// Cardinality: each job admitted net-once and completed once
			// across the cluster, no matter how many times it was stolen.
			sub, ret, comp, disp := 0, 0, 0, 0
			for _, l := range r.Loads() {
				if l.Completed+l.Retracted != l.Submitted {
					t.Fatalf("shard identity broken: %+v", l)
				}
				sub += l.Submitted
				ret += l.Retracted
				comp += l.Completed
				disp += l.Dispatched
			}
			if sub-ret != len(all) || comp != len(all) || disp != len(all) {
				t.Fatalf("cardinality: net=%d completed=%d dispatched=%d, want %d (stolen %d)",
					sub-ret, comp, disp, len(all), r.Stolen())
			}
			if ret != r.Stolen() {
				t.Fatalf("retractions %d != Stolen() %d", ret, r.Stolen())
			}
		})
	}
}

// TestDrainVsStealRace pins the regression the migrations WaitGroup
// exists for: migrations racing Drain must either complete their
// re-homing before any master exits or refuse entirely — never strand a
// job between shards, never deadlock.
func TestDrainVsStealRace(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		r := stealCluster(t, 6, 3, PlacementPinned)
		const jobs = 45
		if _, err := submitIDs(r, jobs); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					r.Migrate(0, 1+w%2, 3)
					// Pace the spin just enough that the clock-driven
					// masters keep getting scheduled; the steal still
					// races every phase of the drain.
					time.Sleep(100 * time.Microsecond)
				}
			}(w)
		}
		if err := r.Drain(); err != nil {
			t.Fatalf("iter %d: drain: %v", iter, err)
		}
		close(stop)
		wg.Wait()

		net, comp := 0, 0
		for _, l := range r.Loads() {
			if l.Completed+l.Retracted != l.Submitted {
				t.Fatalf("iter %d: shard identity broken: %+v", iter, l)
			}
			net += l.Submitted - l.Retracted
			comp += l.Completed
		}
		if net != jobs || comp != jobs {
			t.Fatalf("iter %d: net=%d completed=%d of %d (stolen %d)", iter, net, comp, jobs, r.Stolen())
		}
		if got := r.Migrate(0, 1, 3); got != 0 {
			t.Fatalf("iter %d: Migrate after drain moved %d", iter, got)
		}
	}
}

// --- rebalancer lifecycle --------------------------------------------

func TestRebalancerMovesSkewedBacklog(t *testing.T) {
	r := stealCluster(t, 6, 3, PlacementPinned)
	policy, _ := NewStealPolicy(StealThreshold)
	b := NewRebalancer(r, policy, 2*time.Millisecond)
	if b.Policy() != StealThreshold || b.Interval() != 2*time.Millisecond {
		t.Fatalf("rebalancer config %q %v", b.Policy(), b.Interval())
	}
	b.Start()
	b.Start() // idempotent
	if _, err := submitIDs(r, 90); err != nil {
		t.Fatal(err)
	}
	// Let a few passes fire against the pinned backlog.
	deadline := time.Now().Add(2 * time.Second)
	for b.Moved() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	b.Stop()
	b.Stop() // idempotent
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if b.Passes() == 0 || b.Moved() == 0 {
		t.Fatalf("rebalancer idle against a fully pinned backlog: passes=%d moved=%d", b.Passes(), b.Moved())
	}
	if int64(r.Stolen()) != b.Moved() {
		t.Fatalf("router stolen %d, rebalancer moved %d", r.Stolen(), b.Moved())
	}
	net, comp := 0, 0
	for _, l := range r.Loads() {
		net += l.Submitted - l.Retracted
		comp += l.Completed
	}
	if net != 90 || comp != 90 {
		t.Fatalf("net=%d completed=%d of 90", net, comp)
	}
	// Stealing spread real work: the destinations completed some of it.
	if loads := r.Loads(); loads[1].Completed+loads[2].Completed == 0 {
		t.Fatalf("nothing completed off the pinned shard: %+v", loads)
	}
}

func TestRebalanceOnceNilAndStopWithoutStart(t *testing.T) {
	r := stealCluster(t, 4, 2, PlacementRoundRobin)
	if got := r.RebalanceOnce(nil); got != 0 {
		t.Fatalf("RebalanceOnce(nil) = %d", got)
	}
	policy, _ := NewStealPolicy(StealNone)
	b := NewRebalancer(r, policy, 0)
	if b.Interval() <= 0 {
		t.Fatalf("default interval %v", b.Interval())
	}
	b.Stop() // without Start: no-op
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
}

// --- steal-rate-0 conformance ----------------------------------------

// TestStealRateZeroVirtualConformance extends the conformance contract
// through the rebalancing layer: a virtual-clock cluster hammered by
// concurrent RebalanceOnce passes still reproduces the discrete-event
// engine bit for bit, and steals exactly zero jobs. Under vclock the
// steal path is structurally closed — StealPending refuses on virtual
// worlds, and a one-shard cluster gives a thief no pair to trade
// between — so the rebalancer must be a pure no-op, not merely a rare
// one.
func TestStealRateZeroVirtualConformance(t *testing.T) {
	tasks := core.Bag(24)
	threshold, _ := NewStealPolicy(StealThreshold)
	hetAware, _ := NewStealPolicy(StealHetAware)
	for plName, pl := range conformancePlatforms() {
		for _, name := range sched.ExtendedNames() {
			label := plName + "/" + name
			des, err := sim.Simulate(pl, sched.New(name), tasks)
			if err != nil {
				t.Fatalf("%s engine: %v", label, err)
			}

			r, err := New(Config{
				Platform:     pl,
				NewScheduler: func() sim.Scheduler { return sched.New(name) },
				Shards:       1,
				World:        func(int) live.World { return live.NewVirtual() },
				Sources:      []func(*live.Source){live.Replay(tasks)},
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					r.RebalanceOnce(threshold)
					r.RebalanceOnce(hetAware)
				}
			}()
			r.Start()
			err = r.Drain()
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}

			if r.Stolen() != 0 {
				t.Fatalf("%s: virtual cluster stole %d jobs", label, r.Stolen())
			}
			lv := r.Shards()[0].Result().Schedule
			if len(des.Records) != len(lv.Records) {
				t.Fatalf("%s: engine %d records, cluster %d", label, len(des.Records), len(lv.Records))
			}
			for i := range des.Records {
				if des.Records[i] != lv.Records[i] {
					t.Fatalf("%s task %d:\n  engine  %+v\n  cluster %+v", label, i, des.Records[i], lv.Records[i])
				}
			}
		}
	}
}

// --- placement under churn -------------------------------------------

// TestPlacementSkipsDeadShards drives slave liveness from a scenario
// timeline (the same Fail/Leave/Recover vocabulary the engine's churn
// scenarios use) and pins that no placement policy routes new work to a
// shard with zero live slaves — and that a total blackout falls back to
// accepting rather than refusing.
func TestPlacementSkipsDeadShards(t *testing.T) {
	// Striped over 3 shards, m=6: shard 1 owns global slaves 1 and 4.
	timeline := scenario.Scenario{Events: []scenario.Event{
		scenario.FailAt(0, 1),
		scenario.LeaveAt(0, 4),
	}}.Timeline()

	for _, placement := range PlacementNames() {
		r := stealCluster(t, 6, 3, placement)
		for _, ev := range timeline {
			up := ev.Kind == scenario.SlaveRecover
			if !r.SetSlaveLive(ev.Slave, up) {
				t.Fatalf("%s: unknown slave %d in timeline", placement, ev.Slave)
			}
		}
		if got := r.Shards()[1].LiveSlaves(); got != 0 {
			t.Fatalf("%s: shard 1 has %d live slaves after the kill timeline", placement, got)
		}

		ids, err := submitIDs(r, 30)
		if err != nil {
			t.Fatal(err)
		}
		for _, gid := range ids {
			if s, _ := r.ShardOf(gid); s == 1 {
				t.Fatalf("%s: job %d placed on the dead shard", placement, gid)
			}
		}

		// Recovery: the shard is targetable again (pinned only ever uses
		// the lowest live shard, so assert via liveness, not traffic).
		if !r.SetSlaveLive(1, true) {
			t.Fatal("recover rejected")
		}
		if got := r.Shards()[1].LiveSlaves(); got != 1 {
			t.Fatalf("%s: shard 1 has %d live slaves after recovery", placement, got)
		}

		// Total blackout: declaring every slave down must not wedge
		// admission — placement falls back to ignoring liveness (the
		// masters still hold whatever the detector is wrong about).
		for g := 0; g < 6; g++ {
			r.SetSlaveLive(g, false)
		}
		if _, err := r.SubmitRange(live.JobSpec{}, 1); err != nil {
			t.Fatalf("%s: blackout submission refused: %v", placement, err)
		}
		for g := 0; g < 6; g++ {
			r.SetSlaveLive(g, true)
		}
		if err := r.Drain(); err != nil {
			t.Fatalf("%s: drain: %v", placement, err)
		}
	}

	// Unknown slaves are reported, not ignored silently.
	r := stealCluster(t, 4, 2, PlacementRoundRobin)
	if r.SetSlaveLive(99, false) {
		t.Fatal("unknown slave accepted")
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkStealPlan measures one rebalancer planning pass on synthetic
// loads: 16 shards with the whole backlog on shard 0, the most work a
// single Plan call does (every pairing iteration fires). This is what
// every rebalancer tick pays, balanced cluster or not.
func BenchmarkStealPlan(b *testing.B) {
	const shards = 16
	loads := make([]live.Load, shards)
	loads[0] = live.Load{Submitted: 10000, Admitted: 10000}
	rates := make([]float64, shards)
	for i := range rates {
		rates[i] = 1 + float64(i%4)
	}
	for _, name := range []string{StealThreshold, StealHetAware} {
		policy, err := NewStealPolicy(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if plan := policy.Plan(loads, rates); len(plan) == 0 {
					b.Fatal("no plan for a fully pinned backlog")
				}
			}
		})
	}
}
