package sched

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/optimal"
)

func TestOfflinePlanOptimalOnDesignClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 120; trial++ {
		class := core.CommHomogeneous
		if trial%2 == 1 {
			class = core.CompHomogeneous
		}
		pl := core.Random(rng, class, core.GenConfig{M: 2 + rng.Intn(2)})
		n := 1 + rng.Intn(7)
		got := OfflineMakespan(pl, n)
		want := optimal.Solve(core.NewInstance(pl, core.Bag(n)), core.Makespan).Value
		if got > want+1e-6*(1+want) {
			t.Fatalf("trial %d (%v): offline %v vs optimal %v on %v (n=%d)",
				trial, class, got, want, pl, n)
		}
	}
}

func TestOfflinePlanHeuristicWithinBoundsOnHeterogeneous(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 60; trial++ {
		pl := core.Random(rng, core.Heterogeneous, core.GenConfig{M: 2 + rng.Intn(2)})
		n := 1 + rng.Intn(7)
		got := OfflineMakespan(pl, n)
		opt := optimal.Solve(core.NewInstance(pl, core.Bag(n)), core.Makespan).Value
		if got < opt-1e-9 {
			t.Fatalf("heuristic %v beats the exact optimum %v — impossible", got, opt)
		}
		// The heuristic (myopic backward + local search) stays within 20%
		// of optimal on these small instances.
		if got > 1.2*opt {
			t.Fatalf("trial %d: heuristic %v vs optimal %v (>20%% off) on %v n=%d",
				trial, got, opt, pl, n)
		}
	}
}

func TestOfflineLowerBoundIsALowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 80; trial++ {
		pl := core.Random(rng, core.Classes[trial%4], core.GenConfig{M: 2 + rng.Intn(2)})
		n := 1 + rng.Intn(7)
		lb := OfflineLowerBound(pl, n)
		opt := optimal.Solve(core.NewInstance(pl, core.Bag(n)), core.Makespan).Value
		if lb > opt+1e-9 {
			t.Fatalf("trial %d: lower bound %v exceeds the optimum %v on %v n=%d",
				trial, lb, opt, pl, n)
		}
	}
}

func TestOfflineLowerBoundNontrivial(t *testing.T) {
	// Both constituent bounds must bind somewhere.
	// Port-bound platform: huge c, tiny p.
	portBound := core.NewPlatform([]float64{1, 1}, []float64{0.01, 0.01})
	if lb := OfflineLowerBound(portBound, 10); math.Abs(lb-(10*1+0.01)) > 1e-9 {
		t.Fatalf("port-bound LB %v, want 10.01", lb)
	}
	// Compute-bound platform: tiny c, huge p — fractional bound governs.
	compBound := core.NewPlatform([]float64{0.01, 0.01}, []float64{10, 10})
	lb := OfflineLowerBound(compBound, 10)
	if lb < 50 { // 10 tasks / 2 slaves × 10 s
		t.Fatalf("compute-bound LB %v, want ≥ 50", lb)
	}
}

func TestOfflinePlanAtScale(t *testing.T) {
	// 1000 tasks at 5 slaves: the plan must stay within 2× of the
	// fractional lower bound on every class (sanity against gross
	// regressions; typical gaps are a few percent).
	rng := rand.New(rand.NewSource(84))
	for _, class := range core.Classes {
		pl := core.Random(rng, class, core.GenConfig{})
		got := OfflineMakespan(pl, 1000)
		lb := OfflineLowerBound(pl, 1000)
		if got < lb-1e-9 {
			t.Fatalf("%v: makespan %v below lower bound %v", class, got, lb)
		}
		if got > 2*lb {
			t.Fatalf("%v: makespan %v more than 2× lower bound %v", class, got, lb)
		}
	}
}

func TestOfflineEdgeCases(t *testing.T) {
	pl := core.NewPlatform([]float64{1}, []float64{2})
	if OfflinePlan(pl, 0) != nil || OfflineMakespan(pl, 0) != 0 || OfflineLowerBound(pl, 0) != 0 {
		t.Fatal("n=0 must be empty")
	}
	// Single slave: plan is forced; makespan = c + n·p when p ≥ c.
	if got := OfflineMakespan(pl, 4); math.Abs(got-9) > 1e-9 {
		t.Fatalf("single-slave makespan %v, want 9", got)
	}
	// n < m leaves slaves unused but must still be optimal.
	wide := core.NewPlatform([]float64{1, 1, 1, 1}, []float64{5, 5, 5, 5})
	opt := optimal.Solve(core.NewInstance(wide, core.Bag(2)), core.Makespan).Value
	if got := OfflineMakespan(wide, 2); math.Abs(got-opt) > 1e-9 {
		t.Fatalf("n<m makespan %v, want %v", got, opt)
	}
}

// TestOfflineRejectsInvalidPlatform holds the three off-line entry points
// to an immediate panic with Validate's message on a platform no schedule
// exists for. Each call runs under a deadline: on such a platform the
// lower bound's capacity search used to double its bracket forever.
func TestOfflineRejectsInvalidPlatform(t *testing.T) {
	calls := []struct {
		name string
		call func(core.Platform)
	}{
		{"OfflinePlan", func(pl core.Platform) { OfflinePlan(pl, 3) }},
		{"OfflineMakespan", func(pl core.Platform) { OfflineMakespan(pl, 3) }},
		{"OfflineLowerBound", func(pl core.Platform) { OfflineLowerBound(pl, 3) }},
	}
	for _, pl := range []core.Platform{{}, {C: []float64{math.NaN()}, P: []float64{1}}} {
		want := pl.Validate().Error()
		for _, c := range calls {
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				c.call(pl)
			}()
			select {
			case got := <-done:
				if msg, ok := got.(string); !ok || !strings.Contains(msg, want) {
					t.Errorf("%s(%v): panic %v, want one naming %q", c.name, pl, got, want)
				}
			case <-time.After(5 * time.Second):
				t.Errorf("%s(%v) did not return within 5 s", c.name, pl)
			}
		}
	}
}
