package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// planOnePortUniformQuadratic is the direct form of planOnePortUniform and
// the reference the differential tests compare it against, bit for bit:
// every placement scans the links from the cheapest, checks and then
// updates every level 1..lvl (O(n²/m) per probe), and the slots are
// insertion-sorted.
func planOnePortUniformQuadratic(n int, c []float64, p float64) ([]int, bool) {
	m := len(c)
	lo, hi := 0.0, forwardGreedyMakespan(n, c, filled(m, p))
	for iter := 0; iter < 64 && hi-lo > 1e-11*(1+hi); iter++ {
		mid := (lo + hi) / 2
		if quadraticCounts(n, c, p, mid) != nil {
			hi = mid
		} else {
			lo = mid
		}
	}
	k := quadraticCounts(n, c, p, hi)
	if k == nil {
		return nil, false
	}
	type slot struct {
		j     int
		level int // remaining tasks on j including this one
	}
	slots := make([]slot, 0, n)
	for j := 0; j < m; j++ {
		for i := k[j]; i >= 1; i-- {
			slots = append(slots, slot{j: j, level: i})
		}
	}
	// Sort by level descending, then cost descending, then index.
	for a := 1; a < len(slots); a++ {
		for b := a; b > 0; b-- {
			x, y := slots[b], slots[b-1]
			if x.level > y.level || (x.level == y.level && (c[x.j] > c[y.j] || (c[x.j] == c[y.j] && x.j < y.j))) {
				slots[b], slots[b-1] = slots[b-1], slots[b]
			} else {
				break
			}
		}
	}
	assign := make([]int, n)
	for i, s := range slots {
		assign[i] = s.j
	}
	return assign, true
}

// quadraticCounts is the direct form's probe: per-machine task counts
// reaching n for makespan M, or nil if fewer than n tasks fit. Tasks are
// added one at a time to the cheapest link whose increment respects every
// level budget T_i ≤ M − i·p and the first-arrival cap c_j ≤ M − k_j·p.
func quadraticCounts(n int, c []float64, p, M float64) []int {
	order := sortByKey(len(c), func(j int) float64 { return c[j] })
	tol := float64(1e-9 * (1 + math.Abs(M)))
	k := make([]int, len(c))
	t := make([]float64, n+2) // t[i] = port time of sends with deadline ≤ M − i·p
	for placed := 0; placed < n; placed++ {
		found := false
		for _, j := range order {
			lvl := k[j] + 1
			if lvl > n {
				break
			}
			if c[j] > M-float64(float64(lvl)*p)+tol {
				continue
			}
			ok := true
			for i := 1; i <= lvl; i++ {
				if t[i]+c[j] > M-float64(float64(i)*p)+tol {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for i := 1; i <= lvl; i++ {
				t[i] += c[j]
			}
			k[j] = lvl
			found = true
			break
		}
		if !found {
			return nil
		}
	}
	return k
}

// uniformInstances draws reps seeded uniform-p platforms of m machines
// from each of the two uniform-p classes.
func uniformInstances(seed int64, m, reps int) []core.Platform {
	rng := rand.New(rand.NewSource(seed))
	var out []core.Platform
	for _, class := range []core.Class{core.Homogeneous, core.CompHomogeneous} {
		for r := 0; r < reps; r++ {
			out = append(out, core.Random(rng, class, core.GenConfig{M: m}))
		}
	}
	return out
}

// TestPlanOnePortUniformDifferential holds the O(n·m) planner to the
// direct form's plan and ok, bit for bit, on seeded instances of both
// uniform-p classes. The direct form is quadratic in n, so the largest
// size gets fewer instances.
func TestPlanOnePortUniformDifferential(t *testing.T) {
	for _, m := range []int{1, 2, 3, 5, 8} {
		for _, n := range []int{1, 2, 3, 7, 50, 200, 1000} {
			reps := 40
			if n == 1000 {
				reps = 2
			}
			for i, pl := range uniformInstances(int64(1000*m+n), m, reps) {
				got, gotOK := planOnePortUniform(n, pl.C, pl.P[0])
				want, wantOK := planOnePortUniformQuadratic(n, pl.C, pl.P[0])
				if gotOK != wantOK || !slices.Equal(got, want) {
					t.Fatalf("m=%d n=%d instance %d (c=%v p=%v): plan %v ok=%v, direct form %v ok=%v",
						m, n, i, pl.C, pl.P[0], got, gotOK, want, wantOK)
				}
			}
		}
	}
}

// TestPlanOnePortUniformNearThreshold probes at the makespans where the
// feasibility verdict flips, where some level check is within rounding of
// its budget: the probe's counts must equal the direct form's at the flip
// and a few ulps either side, and the exact replay must have run there.
// Besides seeded instances of both uniform-p classes it draws costs on a
// 0.1 grid, where real slacks tie across levels and a running float sum
// of equal costs and their product differ in the last bits, so an end
// estimate trusted without the replay gives a different verdict.
func TestPlanOnePortUniformNearThreshold(t *testing.T) {
	type instance struct {
		n int
		c []float64
		p float64
	}
	var cases []instance
	for _, m := range []int{2, 3, 5, 8} {
		for _, n := range []int{7, 50, 200} {
			for _, pl := range uniformInstances(int64(7000+100*m+n), m, 8) {
				cases = append(cases, instance{n, pl.C, pl.P[0]})
			}
		}
	}
	rng := rand.New(rand.NewSource(7001))
	for i := 0; i < 400; i++ {
		c := make([]float64, 1+rng.Intn(5))
		for j := range c {
			c[j] = float64(1+rng.Intn(9)) * 0.1
		}
		cases = append(cases, instance{[]int{7, 20, 50, 200}[rng.Intn(4)], c, float64(1+rng.Intn(30)) * 0.1})
	}
	const ulps = 4
	var probes, replays int64
	for i, tc := range cases {
		n, c, p := tc.n, tc.c, tc.p
		// Bisect on the float64 bit patterns (ordered like the values for
		// non-negative floats) for adjacent lo < hi with the direct form
		// infeasible at lo and feasible at hi.
		lo, hi := math.Float64bits(0), math.Float64bits(forwardGreedyMakespan(n, c, filled(len(c), p)))
		if quadraticCounts(n, c, p, math.Float64frombits(hi)) == nil {
			t.Fatalf("case %d (n=%d c=%v p=%v): greedy makespan infeasible", i, n, c, p)
		}
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if quadraticCounts(n, c, p, math.Float64frombits(mid)) != nil {
				hi = mid
			} else {
				lo = mid
			}
		}
		u := newUniformProber(n, c, p)
		for b := hi - ulps; b <= hi+ulps; b++ {
			M := math.Float64frombits(b)
			got, want := u.counts(M), quadraticCounts(n, c, p, M)
			if (got == nil) != (want == nil) || (got != nil && !slices.Equal(got, want)) {
				t.Errorf("case %d (n=%d c=%v p=%v) at M=%v (flip%+d ulps): counts %v, direct form %v",
					i, n, c, p, M, int64(b-hi), got, want)
			}
		}
		probes += u.probes
		replays += u.replays
	}
	t.Logf("%d of %d near-threshold probes took the exact replay", replays, probes)
	if replays == 0 {
		t.Fatal("no near-threshold probe took the exact replay")
	}
}

// BenchmarkPlanOnePortUniform plans one paper-sized horizon (n = 1000) on a
// five-machine computation-homogeneous platform.
func BenchmarkPlanOnePortUniform(b *testing.B) {
	pl := core.Random(rand.New(rand.NewSource(2006)), core.CompHomogeneous, core.GenConfig{M: 5})
	for i := 0; i < b.N; i++ {
		if _, ok := planOnePortUniform(DefaultPlanHorizon, pl.C, pl.P[0]); !ok {
			b.Fatal("no plan")
		}
	}
}
