package sched

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/optimal"
	"repro/internal/sim"
)

func TestStressSLJFOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 300; trial++ {
		pl := core.Random(rng, core.CommHomogeneous, core.GenConfig{M: 2 + rng.Intn(2)})
		n := 1 + rng.Intn(8)
		tasks := core.Bag(n)
		in := core.NewInstance(pl, tasks)
		s, err := sim.Simulate(pl, NewSLJF(n), tasks)
		if err != nil {
			t.Fatal(err)
		}
		opt := optimal.Solve(in, core.Makespan).Value
		if got := s.Makespan(); got > opt+1e-6*(1+opt) {
			t.Fatalf("trial %d: SLJF %v vs opt %v on %v n=%d", trial, got, opt, pl, n)
		}
	}
}

func TestStressSLJFWCOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(778))
	for trial := 0; trial < 300; trial++ {
		pl := core.Random(rng, core.CompHomogeneous, core.GenConfig{M: 2 + rng.Intn(2)})
		n := 1 + rng.Intn(8)
		tasks := core.Bag(n)
		in := core.NewInstance(pl, tasks)
		s, err := sim.Simulate(pl, NewSLJFWC(n), tasks)
		if err != nil {
			t.Fatal(err)
		}
		opt := optimal.Solve(in, core.Makespan).Value
		if got := s.Makespan(); got > opt+1e-6*(1+opt) {
			t.Fatalf("trial %d: SLJFWC %v vs opt %v on %v n=%d", trial, got, opt, pl, n)
		}
	}
}
