package core

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestValidateAcceptsFeasible(t *testing.T) {
	if err := ValidateSchedule(twoTaskSchedule()); err != nil {
		t.Fatalf("feasible schedule rejected: %v", err)
	}
}

func mutate(s Schedule, f func(*Schedule)) Schedule {
	cp := Schedule{Instance: s.Instance, Records: append([]Record(nil), s.Records...)}
	f(&cp)
	return cp
}

func TestValidateCatchesViolations(t *testing.T) {
	base := twoTaskSchedule()
	cases := []struct {
		name    string
		broken  Schedule
		keyword string
	}{
		{
			"missing record",
			mutate(base, func(s *Schedule) { s.Records = s.Records[:1] }),
			"records",
		},
		{
			"duplicate record",
			mutate(base, func(s *Schedule) { s.Records[1] = s.Records[0] }),
			"duplicate",
		},
		{
			"unknown slave",
			mutate(base, func(s *Schedule) { s.Records[0].Slave = 9 }),
			"unknown slave",
		},
		{
			"send before release",
			mutate(base, func(s *Schedule) {
				s.Records[1].SendStart = 0.5
				s.Records[1].Arrive = 1.5
				s.Records[1].Start = 4
				s.Records[1].Complete = 7
			}),
			"before release",
		},
		{
			"wrong communication duration",
			mutate(base, func(s *Schedule) { s.Records[0].Arrive = 2.5 }),
			"communication",
		},
		{
			"start before arrival",
			mutate(base, func(s *Schedule) {
				s.Records[1].Start = 1.5
				s.Records[1].Complete = 4.5
			}),
			"before arrival",
		},
		{
			"wrong computation duration",
			mutate(base, func(s *Schedule) { s.Records[0].Complete = 5 }),
			"computation",
		},
		{
			"one-port overlap",
			mutate(base, func(s *Schedule) {
				s.Records[1].SendStart = 0.5 + 1 // still after release? release=1 → violates; use release-safe overlap
			}),
			"",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateSchedule(tc.broken)
			if err == nil {
				t.Fatal("violation accepted")
			}
			if tc.keyword != "" && !strings.Contains(err.Error(), tc.keyword) {
				t.Fatalf("error %q does not mention %q", err, tc.keyword)
			}
		})
	}
}

func TestValidateOnePortOverlap(t *testing.T) {
	// Two sends overlapping in time on different slaves, both after release.
	pl := NewPlatform([]float64{1, 1}, []float64{3, 7})
	inst := NewInstance(pl, ReleasesAt(0, 0))
	s := Schedule{
		Instance: inst,
		Records: []Record{
			{Task: 0, Slave: 0, SendStart: 0, Arrive: 1, Start: 1, Complete: 4},
			{Task: 1, Slave: 1, SendStart: 0.5, Arrive: 1.5, Start: 1.5, Complete: 8.5},
		},
	}
	err := ValidateSchedule(s)
	if err == nil || !strings.Contains(err.Error(), "one-port") {
		t.Fatalf("one-port overlap not caught: %v", err)
	}
}

func TestValidateSlaveOverlap(t *testing.T) {
	pl := NewPlatform([]float64{1}, []float64{3})
	inst := NewInstance(pl, ReleasesAt(0, 0))
	s := Schedule{
		Instance: inst,
		Records: []Record{
			{Task: 0, Slave: 0, SendStart: 0, Arrive: 1, Start: 1, Complete: 4},
			{Task: 1, Slave: 0, SendStart: 1, Arrive: 2, Start: 2, Complete: 5}, // overlaps task 0's run
		},
	}
	err := ValidateSchedule(s)
	if err == nil || !strings.Contains(err.Error(), "concurrently") {
		t.Fatalf("slave overlap not caught: %v", err)
	}
}

func TestValidateFIFOOrder(t *testing.T) {
	pl := NewPlatform([]float64{1}, []float64{2})
	inst := NewInstance(pl, ReleasesAt(0, 0))
	// Task 1 arrives second but runs first: slave-FIFO violation.
	s := Schedule{
		Instance: inst,
		Records: []Record{
			{Task: 0, Slave: 0, SendStart: 0, Arrive: 1, Start: 4, Complete: 6},
			{Task: 1, Slave: 0, SendStart: 1, Arrive: 2, Start: 2, Complete: 4},
		},
	}
	err := ValidateSchedule(s)
	if err == nil || !strings.Contains(err.Error(), "arrived") {
		t.Fatalf("FIFO violation not caught: %v", err)
	}
}

func TestValidateSizeFactors(t *testing.T) {
	// A perturbed task must be charged scaled durations.
	pl := NewPlatform([]float64{1}, []float64{2})
	tasks := []Task{{Release: 0, CommScale: 1.5, CompScale: 2}}
	inst := NewInstance(pl, tasks)
	good := Schedule{
		Instance: inst,
		Records: []Record{
			{Task: 0, Slave: 0, SendStart: 0, Arrive: 1.5, Start: 1.5, Complete: 5.5},
		},
	}
	if err := ValidateSchedule(good); err != nil {
		t.Fatalf("scaled schedule rejected: %v", err)
	}
	bad := mutate(good, func(s *Schedule) { s.Records[0].Arrive = 1 })
	if err := ValidateSchedule(bad); err == nil {
		t.Fatal("nominal-length send accepted for scaled task")
	}
}

func TestWorkConserving(t *testing.T) {
	if !WorkConserving(twoTaskSchedule()) {
		t.Fatal("back-to-back schedule reported as idling")
	}
	// Insert deliberate idling: task 1 released at 1 but sent at 3.
	pl := NewPlatform([]float64{1, 1}, []float64{3, 7})
	inst := NewInstance(pl, ReleasesAt(0, 1))
	lazy := Schedule{
		Instance: inst,
		Records: []Record{
			{Task: 0, Slave: 0, Release: 0, SendStart: 0, Arrive: 1, Start: 1, Complete: 4},
			{Task: 1, Slave: 0, Release: 1, SendStart: 3, Arrive: 4, Start: 4, Complete: 7},
		},
	}
	if err := ValidateSchedule(lazy); err != nil {
		t.Fatalf("idling schedule must still be feasible: %v", err)
	}
	if WorkConserving(lazy) {
		t.Fatal("idling schedule reported as work-conserving")
	}
}

// workConservingAllPairs is the loop WorkConserving replaced, kept as the
// differential reference: for every idle gap it asks every record whether it
// was unsent and released throughout.
func workConservingAllPairs(s Schedule) bool {
	recs := append([]Record(nil), s.Records...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].SendStart < recs[j].SendStart })
	portFree := 0.0
	for _, r := range recs {
		if r.SendStart > portFree+Eps {
			for _, other := range recs {
				if other.SendStart >= r.SendStart-Eps && other.Release < r.SendStart-Eps &&
					other.Release <= portFree+Eps {
					return false
				}
			}
		}
		if r.Arrive > portFree {
			portFree = r.Arrive
		}
	}
	return true
}

// TestWorkConservingMatchesAllPairs: the earliest-unsent-release sweep
// answers as the all-pairs loop did on seeded one-port record lists — sends
// in and out of release order, record lists in and out of send order, idle
// gaps and release offsets on both sides of Eps.
func TestWorkConservingMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1604))
	step := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return Eps * (0.5 + rng.Float64()) // within or just beyond tolerance
		}
		return float64(rng.Intn(5)) * 0.5
	}
	verdicts := [2]int{}
	for c := 0; c < 4000; c++ {
		recs := make([]Record, 1+rng.Intn(10))
		portFree := 0.0
		for i := range recs {
			r := &recs[i]
			r.Task = TaskID(i)
			r.Release = math.Max(0, portFree+step()-step())
			r.SendStart = math.Max(portFree, r.Release) + step()
			r.Arrive = r.SendStart + 0.5
			portFree = r.Arrive
		}
		if c%2 == 1 {
			rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		}
		s := Schedule{Records: recs}
		got, want := WorkConserving(s), workConservingAllPairs(s)
		if got != want {
			t.Fatalf("case %d: sweep says %v, all-pairs loop %v\n%+v", c, got, want, recs)
		}
		if got {
			verdicts[1]++
		} else {
			verdicts[0]++
		}
	}
	if verdicts[0] < 400 || verdicts[1] < 400 {
		t.Fatalf("lopsided cases: %d idling, %d work-conserving", verdicts[0], verdicts[1])
	}
}

// TestSendOrderKeepsSortedInput: records already in send order come back
// as the caller's own slice (no copy on the served path), out-of-order ones
// as a sorted copy that leaves the input alone.
func TestSendOrderKeepsSortedInput(t *testing.T) {
	recs := []Record{{Release: 2, SendStart: 3}, {Release: 0, SendStart: 5}, {Release: 4, SendStart: 6}}
	sorted, earliest := SendOrder(recs)
	if &sorted[0] != &recs[0] {
		t.Fatal("sorted input was copied")
	}
	if earliest[0] != 0 || earliest[1] != 0 || earliest[2] != 4 {
		t.Fatalf("earliest %v, want [0 0 4]", earliest)
	}
	recs[0], recs[2] = recs[2], recs[0]
	sorted, earliest = SendOrder(recs)
	if &sorted[0] == &recs[0] || recs[0].SendStart != 6 {
		t.Fatal("out-of-order input was sorted in place")
	}
	if sorted[0].SendStart != 3 || sorted[2].SendStart != 6 || earliest[0] != 0 || earliest[2] != 4 {
		t.Fatalf("sorted %+v earliest %v", sorted, earliest)
	}
}
