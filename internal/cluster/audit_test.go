package cluster

// Decision-audit coverage: placement decisions carry every shard's
// score (chosen and rejected alike), steals and migrations land in the
// same ring with realized sizes and latencies, and a cluster built
// without AuditDepth records nothing — the audit is strictly opt-in.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
)

func auditCluster(t *testing.T, shards int, placement string, depth int) *Router {
	t.Helper()
	m := 2 * shards
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
		AuditDepth:   depth,
		World:        func(int) live.World { return live.NewRealTime(1000) },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	return r
}

func TestAuditOffByDefault(t *testing.T) {
	r := auditCluster(t, 2, PlacementLeastLoaded, 0)
	defer r.Drain()
	if r.Audit() != nil {
		t.Fatal("AuditDepth 0 built a ring")
	}
	if _, err := submitIDs(r, 4); err != nil {
		t.Fatal(err)
	}
	// The nil ring stays inert through the whole surface.
	if r.Audit().Len() != 0 || r.Audit().Recent(0) != nil {
		t.Fatal("nil audit not inert")
	}
}

func TestAuditRecordsPlacementsWithScores(t *testing.T) {
	r := auditCluster(t, 2, PlacementLeastLoaded, 32)
	defer r.Drain()
	ids, err := submitIDs(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	// One decision per batch, whatever entry point submitted it: Job is
	// the batch's first ID, Planned/N its size, and the scores are every
	// shard's ranking as of the top of the batch.
	decisions := r.Audit().Recent(0)
	if len(decisions) != 1 {
		t.Fatalf("audit holds %d decisions for one batch, want 1", len(decisions))
	}
	d := decisions[0]
	if d.Kind != obs.DecisionPlace || d.Policy != PlacementLeastLoaded || d.From != -1 {
		t.Fatalf("decision = %+v", d)
	}
	if d.Job != ids[0] || d.Planned != len(ids) || d.N != len(ids) {
		t.Fatalf("decision audits job %d planned %d n %d, want the batch %v", d.Job, d.Planned, d.N, ids)
	}
	if len(d.Scores) != 2 {
		t.Fatalf("scores = %v, want one per shard", d.Scores)
	}
	for _, s := range d.Scores {
		if d.Scores[d.To] > s {
			t.Fatalf("first job went to shard %d with scores %v", d.To, d.Scores)
		}
	}
	if d.Wall == 0 {
		t.Fatal("decision has no wall timestamp")
	}
	// A single Submit is a batch of one and audits the same shape.
	gid, err := r.SubmitRange(live.JobSpec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := r.Audit().Recent(1)[0]; d.Job != gid || d.Planned != 1 || d.N != 1 || len(d.Scores) != 2 {
		t.Fatalf("single-job decision = %+v, want job %d as a batch of one", d, gid)
	}
}

func TestAuditUnscoredPolicyRecordsNoScores(t *testing.T) {
	r := auditCluster(t, 2, PlacementRoundRobin, 32)
	defer r.Drain()
	if _, err := submitIDs(r, 2); err != nil {
		t.Fatal(err)
	}
	for _, d := range r.Audit().Recent(0) {
		if d.Scores != nil {
			t.Fatalf("round-robin decision carries scores %v", d.Scores)
		}
	}
}

func TestAuditRecordsMigrations(t *testing.T) {
	r := auditCluster(t, 2, PlacementPinned, 64)
	if _, err := submitIDs(r, 20); err != nil {
		t.Fatal(err)
	}
	waitIntake(r)
	var hookMoved int
	var hookLatency float64
	r.OnMigrate(func(moved int, latency float64) { hookMoved, hookLatency = moved, latency })
	moved := r.Migrate(0, 1, 8)
	if moved == 0 {
		t.Fatal("migration moved nothing")
	}
	var mig *obs.Decision
	for _, d := range r.Audit().Recent(0) {
		if d.Kind == obs.DecisionMigrate {
			d := d
			mig = &d
			break
		}
	}
	if mig == nil {
		t.Fatal("no migrate decision in audit")
	}
	if mig.From != 0 || mig.To != 1 || mig.Planned != 8 || mig.N != moved {
		t.Fatalf("migrate decision = %+v (moved %d)", mig, moved)
	}
	if mig.LatencySeconds <= 0 {
		t.Fatalf("migration latency = %v, want > 0", mig.LatencySeconds)
	}
	if hookMoved != moved || hookLatency != mig.LatencySeconds {
		t.Fatalf("OnMigrate saw (%d, %v), audit says (%d, %v)",
			hookMoved, hookLatency, mig.N, mig.LatencySeconds)
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestAuditRecordsStealPlans(t *testing.T) {
	r := auditCluster(t, 2, PlacementPinned, 64)
	if _, err := submitIDs(r, 20); err != nil {
		t.Fatal(err)
	}
	waitIntake(r)
	policy, err := NewStealPolicy(StealThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if moved := r.RebalanceOnce(policy); moved == 0 {
		t.Fatal("rebalance pass moved nothing over a pinned backlog")
	}
	var steals, migrates int
	for _, d := range r.Audit().Recent(0) {
		switch d.Kind {
		case obs.DecisionSteal:
			steals++
			if d.Policy != StealThreshold || d.Planned <= 0 {
				t.Fatalf("steal decision = %+v", d)
			}
		case obs.DecisionMigrate:
			migrates++
		}
	}
	if steals == 0 || migrates == 0 {
		t.Fatalf("audit holds %d steal and %d migrate decisions, want both", steals, migrates)
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
}
