package sched

import (
	"math"
	"sync/atomic"
)

// This file implements the backward ("last job first") planners behind
// SLJF and SLJFWC. Both compute, before anything is dispatched, an
// assignment of the first n send positions to processors, by placing task
// n first and every earlier task as late as possible; a binary search
// (bisect) finds the smallest makespan for which the backward placement
// fits. Each of its probes costs O(n·m): planSlots and planOnePort's
// heterogeneous path scan the m processors per task, and the exact
// uniform-p planner (planOnePortUniform) checks a placement at the two
// ends of its level range, replaying the per-level sums only within
// rounding of a budget.
//
// The companion report defining the original algorithms is not available
// offline; DESIGN.md §3 records this reconstruction, and property tests
// validate both planners against the exact offline optimum on their
// design-target platform classes.

// planSlots computes the SLJF assignment: n send slots of uniform length c
// (slot s's transfer completes at s·c), processors with computation times
// p. It returns, for each forward position 0..n-1, the processor index.
//
// Feasibility for a target makespan M is checked backwards: E_j is the
// latest time by which the next (earlier) task placed on j must complete;
// placing a task of slot s on j requires its arrival s·c to precede
// E_j − p_j, and consumes E_j ← E_j − p_j. Slots are placed from n down
// to 1, each on the feasible processor with the least slack
// (E_j − p_j − arrival), i.e. a best-fit rule that preserves flexible
// processors for the tighter, later slots.
func planSlots(n int, c float64, p []float64) []int {
	if n <= 0 {
		return nil
	}
	m := len(p)
	assign := make([]int, n)
	// One scratch vector of e[j]−p[j] values (the latest completion a
	// task placed on j may have), reused by every probe. It starts at
	// M−p[j] and placing on j subtracts another p[j]: the floats of
	// recomputing e[j]−p[j], with one fewer subtraction per scan. Each
	// probe writes its placements into assign; the last one, at the
	// bisection's result, is the plan.
	avail := make([]float64, m)
	feasible := func(M float64) bool {
		// Slack tolerance: the backward recursion subtracts the same
		// quantities the forward evaluation adds, but in a different
		// order, so the exact optimum can show a few-ulp negative slack.
		// The dispatch is forward-ASAP anyway, so the tolerance cannot
		// produce an invalid schedule — only an infinitesimally padded M.
		tol := 1e-9 * (1 + math.Abs(M))
		for j := range avail {
			avail[j] = M - p[j]
		}
		for s := n; s >= 1; s-- {
			arrival := float64(float64(s) * c)
			best := -1
			bestSlack := math.Inf(1)
			for j := 0; j < m; j++ {
				slack := avail[j] - arrival
				if slack >= -tol && slack < bestSlack {
					best, bestSlack = j, slack
				}
			}
			if best < 0 {
				return false
			}
			avail[best] -= p[best]
			assign[s-1] = best
		}
		return true
	}

	comms := filled(m, c)
	greedy := forwardGreedyAssignment(n, comms, p)
	if !feasible(bisect(planMakespan(greedy, comms, p), 100, 1e-12, feasible)) {
		// Defence in depth: fall back to the forward greedy assignment,
		// which is always well-defined.
		return greedy
	}
	return assign
}

// planOnePort computes the SLJFWC assignment with per-processor
// communication times under the one-port constraint.
//
// On its design-target platforms (uniform p) the plan is exact: for a
// candidate makespan M, a schedule meeting M exists iff one can pick task
// counts k_j with Σk_j = n such that (a) c_j ≤ M − k_j·p (the first task
// must fit on the port from time 0) and (b) for every level i ≥ 1 the
// total port time of all sends whose arrival deadline is at most M − i·p,
// namely Σ_{l≥i} Σ_{j: k_j≥l} c_j, fits before that deadline. Constraint
// (b) is the earliest-deadline-first schedulability test with deadlines
// aligned on levels; the cheapest-first nested level greedy of
// planOnePortUniform maximizes the task count for a given M in O(n·m), and
// a binary search finds the smallest feasible M.
//
// On fully heterogeneous platforms the deadlines are not aligned and the
// exact structure is lost; a backward latest-send-first placement with a
// bounded local-search polish is used instead (a documented heuristic —
// the paper only positions SLJFWC as designed for processor-homogeneous
// platforms).
func planOnePort(n int, c, p []float64) []int {
	if n <= 0 {
		return nil
	}
	if uniform(p) {
		if plan, ok := planOnePortUniform(n, c, p[0]); ok {
			return plan
		}
	}
	m := len(c)
	assign := make([]int, n)
	// Scratch and placements as in planSlots.
	avail := make([]float64, m)
	feasible := func(M float64) bool {
		tol := 1e-9 * (1 + math.Abs(M))
		for j := range avail {
			avail[j] = M - p[j]
		}
		b := M
		for t := n; t >= 1; t-- {
			best := -1
			bestStart := math.Inf(-1)
			bestX := 0.0
			for j := 0; j < m; j++ {
				// min(b, e[j]-p[j]) spelled out: the operands are finite and
				// non-negative-zero here, so the branch is bit-identical to
				// math.Min without the (non-intrinsified) call.
				x := avail[j]
				if b < x {
					x = b
				}
				if start := x - c[j]; start >= -tol && start > bestStart {
					best, bestStart, bestX = j, start, x
				}
			}
			if best < 0 {
				return false
			}
			avail[best] -= p[best]
			b = bestX - c[best]
			assign[t-1] = best
		}
		return true
	}

	greedy := forwardGreedyAssignment(n, c, p)
	greedyMakespan := planMakespan(greedy, c, p)
	if !feasible(bisect(greedyMakespan, 100, 1e-12, feasible)) || greedyMakespan < planMakespan(assign, c, p) {
		assign = greedy
	}
	return localSearch(assign, c, p)
}

// localSearchLimit bounds the instance size for the O(n²·m) single-task
// reassignment polish; beyond it the pass would dominate planning time.
const localSearchLimit = 200

// localSearch improves a plan by single-task reassignment hill climbing on
// the forward-evaluated makespan. The O(n·m) inner loop re-evaluates the
// makespan constantly, so it reuses one scratch ready vector instead of
// allocating per evaluation.
func localSearch(assign []int, c, p []float64) []int {
	n, m := len(assign), len(c)
	if n == 0 || n > localSearchLimit {
		return assign
	}
	ready := make([]float64, m)
	best := planMakespanInto(assign, c, p, ready)
	improved := true
	for pass := 0; pass < 8 && improved; pass++ {
		improved = false
		for i := 0; i < n; i++ {
			orig := assign[i]
			for j := 0; j < m; j++ {
				if j == orig {
					continue
				}
				assign[i] = j
				if v := planMakespanInto(assign, c, p, ready); v < best-1e-12 {
					best = v
					orig = j
					improved = true
				} else {
					assign[i] = orig
				}
			}
			assign[i] = orig
		}
	}
	return assign
}

// uniform reports whether every value matches the first within tolerance.
func uniform(v []float64) bool {
	for _, x := range v[1:] {
		if math.Abs(x-v[0]) > 1e-9*(1+v[0]) {
			return false
		}
	}
	return true
}

// planOnePortUniform is the exact uniform-p planner described on
// planOnePort. It reports ok=false only if the construction cannot place n
// tasks even at the greedy upper bound, which cannot happen for positive
// costs but is guarded anyway.
//
// A probe (uniformProber.counts) adds the n tasks one at a time to the
// cheapest link whose increment respects the first-arrival cap
// c_j ≤ M − k_j·p and every level budget t(i) + c_j ≤ M − i·p for
// i = 1..lvl, where lvl = k_j + 1 and t(i) = Σ_d c_d·(k_d − i + 1)⁺ is the
// port time of the sends whose deadline is at most M − i·p. Three facts make a probe O(n·m) while its
// every decision stays the float decision of the direct form
// (planOnePortUniformQuadratic, which TestPlanOnePortUniformDifferential
// compares it with bit for bit):
//
//   - A link that fails stays failed: its lvl does not change and t only
//     grows (adding a non-negative cost never lowers a float). So the
//     links are tried in cost order by one cursor that never moves back:
//     the links before it hold their final counts, the links after it none.
//   - t is convex in i, so the real slack s(i) = M − i·p + tol − t(i) − c_j
//     is concave and its minimum over [1, lvl] lies at i = 1 or i = lvl.
//     t(1) is the exact running sum of every placed cost (the same float
//     additions in the same order as the direct form's t[1]); t(lvl) is
//     summed in O(m) from the counts.
//   - Near the threshold the ends are not enough, because the direct form
//     compares rounded sums level by level. With u = 2⁻⁵³ and
//     S = |M| + lvl·p + tol + t(1) + c_j bounding every magnitude involved:
//     the direct form's t[i] is a running sum of at most n costs, within
//     n·u·t(i) of t(i), and its check adds four more roundings, so its
//     verdict at i is the sign of s(i) whenever |s(i)| > (n+4)·u·S. The two
//     end estimates here are within (n+m+6)·u·S of s (t(lvl) sums at most
//     m products). So with δ = 2·(n+m+8)·u·S, an end estimate below −δ
//     means the direct form fails at that end, and both above δ mean it
//     passes at every level. In between, the placements are replayed into
//     the per-level sums t[1..n] — the direct form's additions in its
//     order, caught up lazily — and the direct form's level loop decides.
func planOnePortUniform(n int, c []float64, p float64) ([]int, bool) {
	m := len(c)
	u := newUniformProber(n, c, p)
	hi := bisect(forwardGreedyMakespan(n, c, filled(m, p)), 64, 1e-11, func(M float64) bool { return u.counts(M) != nil })
	k := u.counts(hi)
	planProbes.Add(u.probes)
	if u.replays > 0 {
		planReplays.Add(u.replays)
	}
	if k == nil {
		return nil, false
	}
	// Forward order = earliest deadline first: the i-th-from-last task of
	// machine j has arrival deadline M − i·p, so forward position order is
	// by descending remaining level. Among equal levels, ship the costlier
	// link first (its send has the least room to slide right), ties by
	// index. The order is total, so emitting level by level is the sort.
	costliest := sortByKey(m, func(j int) float64 { return -c[j] })
	top := 0
	for _, x := range k {
		top = max(top, x)
	}
	assign := make([]int, 0, n)
	for level := top; level >= 1; level-- {
		for _, j := range costliest {
			if k[j] >= level {
				assign = append(assign, j)
			}
		}
	}
	return assign, true
}

// uniformProber is planOnePortUniform's feasibility probe. Its scratch is
// shared across the binary search's probes, and it counts the probes and
// those that took the exact replay.
type uniformProber struct {
	n     int
	c     []float64
	p     float64
	order []int     // links, cheapest first
	k     []int     // tasks per link
	t     []float64 // t[i], i = 1..n, as the direct form sums it (replay only)

	// Per probe: the target, its tolerance, the exact running t(1), and
	// how far t[] has caught up with the placements (see replay).
	M, tol, t1   float64
	syncQ, syncK int
	dirty        bool

	probes, replays int64
}

func newUniformProber(n int, c []float64, p float64) *uniformProber {
	return &uniformProber{
		n: n, c: c, p: p,
		order: sortByKey(len(c), func(j int) float64 { return c[j] }),
		k:     make([]int, len(c)),
		t:     make([]float64, n+1),
	}
}

// counts returns per-machine task counts reaching n for makespan M, or nil
// if fewer than n tasks fit. The slice is the prober's scratch.
func (u *uniformProber) counts(M float64) []int {
	u.probes++
	u.M, u.tol, u.t1 = M, 1e-9*(1+math.Abs(M)), 0
	u.syncQ, u.syncK, u.dirty = 0, 0, false
	clear(u.k)
	q, m := 0, len(u.c)
	for placed := 0; placed < u.n; placed++ {
		for q < m && !u.fits(q) {
			q++
		}
		if q == m {
			return nil
		}
		j := u.order[q]
		u.k[j]++
		u.t1 += u.c[j]
	}
	return u.k
}

// fits reports whether one more task fits on the link at cursor position
// q, with the direct form's verdict (see planOnePortUniform).
func (u *uniformProber) fits(q int) bool {
	M, p, tol, c := u.M, u.p, u.tol, u.c
	j := u.order[q]
	lvl := u.k[j] + 1
	// First-arrival cap: the deepest slot's deadline must leave room for
	// the very first send on this link.
	if c[j] > M-float64(float64(lvl)*p)+tol {
		return false
	}
	if u.t1+c[j] > M-p+tol { // level 1, exact
		return false
	}
	if lvl == 1 {
		return true
	}
	// t(lvl): the links after the cursor have no tasks, and the cursor's
	// own link none at level lvl.
	tl := 0.0
	for _, d := range u.order[:q] {
		if u.k[d] >= lvl {
			tl += float64(c[d] * float64(u.k[d]-lvl+1))
		}
	}
	lvlP := float64(float64(lvl) * p)
	delta := float64(2*(u.n+len(c)+8)) * 0x1p-53 * (math.Abs(M) + lvlP + tol + u.t1 + c[j])
	sLast := M - lvlP + tol - (tl + c[j])
	if sLast < -delta {
		return false
	}
	if sFirst := M - p + tol - (u.t1 + c[j]); sFirst > delta && sLast > delta {
		return true
	}
	u.replay(q)
	t := u.t
	for i := 1; i <= lvl; i++ {
		if t[i]+c[j] > M-float64(float64(i)*p)+tol {
			return false
		}
	}
	return true
}

// replay brings t[] up to date with every placement so far. The
// placements are order[0] k times, order[1] k times, …, order[q] k times,
// in that order; t[] holds them up to (syncQ, syncK) and takes the rest
// with the direct form's additions, so every t[i] is its float sum.
func (u *uniformProber) replay(q int) {
	if !u.dirty {
		clear(u.t)
		u.dirty = true
		u.replays++
	}
	for {
		j := u.order[u.syncQ]
		for lvl := u.syncK + 1; lvl <= u.k[j]; lvl++ {
			for i := 1; i <= lvl; i++ {
				u.t[i] += u.c[j]
			}
		}
		u.syncK = u.k[j]
		if u.syncQ == q {
			return
		}
		u.syncQ, u.syncK = u.syncQ+1, 0
	}
}

// planProbes and planReplays count planOnePortUniform's feasibility probes
// and those among them in which a level check fell within δ of the
// threshold and took the exact replay. Each plan adds its totals once, so
// the counters cost nothing per probe; tests read them to hold the replay
// rate down.
var planProbes, planReplays atomic.Int64

// filled returns m copies of x: the cost vector of a uniform link or
// processor set.
func filled(m int, x float64) []float64 {
	out := make([]float64, m)
	for j := range out {
		out[j] = x
	}
	return out
}

// bisect searches (0, hi] for the smallest value ok accepts, ok being
// monotone and accepting hi: it halves the bracket at most iters times,
// stopping once it is within rel·(1+hi), and returns its accepted end.
// The midpoint is converted explicitly so that no architecture fuses its
// product into a probe's first subtraction.
func bisect(hi float64, iters int, rel float64, ok func(float64) bool) float64 {
	lo := 0.0
	for iter := 0; iter < iters && hi-lo > rel*(1+hi); iter++ {
		if mid := float64((lo + hi) / 2); ok(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// forwardGreedyMakespan simulates a forward earliest-finish list schedule
// of n identical tasks released at 0 on the given costs, returning its
// makespan. It upper-bounds the optimum and seeds the binary searches.
func forwardGreedyMakespan(n int, c, p []float64) float64 {
	return planMakespan(forwardGreedyAssignment(n, c, p), c, p)
}

// forwardGreedyAssignment returns the earliest-finish forward assignment.
func forwardGreedyAssignment(n int, c, p []float64) []int {
	m := len(c)
	ready := make([]float64, m)
	port := 0.0
	out := make([]int, n)
	for i := 0; i < n; i++ {
		best := 0
		bestFinish := math.Inf(1)
		for j := 0; j < m; j++ {
			start := port + c[j]
			if ready[j] > start {
				start = ready[j]
			}
			finish := start + p[j]
			if finish < bestFinish {
				best, bestFinish = j, finish
			}
		}
		out[i] = best
		port += c[best]
		ready[best] = bestFinish
	}
	return out
}

// planMakespan evaluates the makespan a plan achieves when the n tasks are
// all released at time 0 and dispatched ASAP in plan order under true
// costs. Used by tests and the plan-horizon ablation.
func planMakespan(assign []int, c, p []float64) float64 {
	return planMakespanInto(assign, c, p, make([]float64, len(c)))
}

// planMakespanInto is planMakespan with a caller-owned ready scratch
// vector (cleared here), for the hill-climbing loop that evaluates
// thousands of candidate plans.
func planMakespanInto(assign []int, c, p []float64, ready []float64) float64 {
	clear(ready)
	port := 0.0
	makespan := 0.0
	for _, j := range assign {
		arrive := port + c[j]
		// max(arrive, ready[j]) spelled out; operands are finite, so this
		// is bit-identical to math.Max without the call overhead.
		start := arrive
		if ready[j] > start {
			start = ready[j]
		}
		finish := start + p[j]
		port = arrive
		ready[j] = finish
		if finish > makespan {
			makespan = finish
		}
	}
	return makespan
}
