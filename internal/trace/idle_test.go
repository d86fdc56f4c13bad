package trace

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
)

// firstWitnessIdle is the scan portIdleWithPending replaced, kept as the
// differential reference: for every idle gap it walks the later records in
// send order and charges the first one released before the gap closed —
// quadratic when no gap has a witness, and short of the documented quantity
// when an earlier-released task is sent later (TestIdleChargesEarliestRelease).
func firstWitnessIdle(records []core.Record) float64 {
	recs := append([]core.Record(nil), records...)
	sort.Slice(recs, func(a, b int) bool { return recs[a].SendStart < recs[b].SendStart })
	idle := 0.0
	portFree := 0.0
	for i, rec := range recs {
		if rec.SendStart > portFree {
			for _, later := range recs[i:] {
				lo := math.Max(portFree, later.Release)
				hi := rec.SendStart
				if lo < hi {
					idle += hi - lo
					break
				}
			}
		}
		if rec.Arrive > portFree {
			portFree = rec.Arrive
		}
	}
	return idle
}

// intervalUnionIdle is the brute-force oracle, straight from the field's
// definition: for every idle gap of the port, the measure of the union over
// all tasks of (the gap ∩ [release, send start)).
func intervalUnionIdle(records []core.Record) float64 {
	recs := append([]core.Record(nil), records...)
	sort.Slice(recs, func(a, b int) bool { return recs[a].SendStart < recs[b].SendStart })
	idle := 0.0
	portFree := 0.0
	for _, rec := range recs {
		if gapLo, gapHi := portFree, rec.SendStart; gapLo < gapHi {
			var pending [][2]float64
			for _, task := range recs {
				lo, hi := math.Max(gapLo, task.Release), math.Min(gapHi, task.SendStart)
				if lo < hi {
					pending = append(pending, [2]float64{lo, hi})
				}
			}
			sort.Slice(pending, func(a, b int) bool { return pending[a][0] < pending[b][0] })
			covered := gapLo
			for _, iv := range pending {
				if iv[1] > covered {
					idle += iv[1] - math.Max(iv[0], covered)
					covered = iv[1]
				}
			}
		}
		if rec.Arrive > portFree {
			portFree = rec.Arrive
		}
	}
	return idle
}

// randomSends builds a one-port-feasible record list of up to 12 tasks on
// two slaves. Times mix a half-unit grid (so releases, send starts and
// port-free instants coincide often) with arbitrary floats. With
// releaseOrder the tasks go out oldest release first, as every registered
// scheduler sends them; otherwise in a random order. Either way the port
// sometimes idles past the moment it could have sent.
func randomSends(rng *rand.Rand, releaseOrder bool) []core.Record {
	span := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.Float64() * 3
		}
		return float64(rng.Intn(7)) * 0.5
	}
	n := 1 + rng.Intn(12)
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{Task: core.TaskID(i), Slave: rng.Intn(2), Release: span() * 2}
	}
	if releaseOrder {
		slices.SortFunc(recs, func(a, b core.Record) int {
			switch {
			case a.Release < b.Release:
				return -1
			case a.Release > b.Release:
				return 1
			}
			return 0
		})
	}
	portFree := 0.0
	for i := range recs {
		r := &recs[i]
		r.SendStart = math.Max(portFree, r.Release)
		if rng.Intn(2) == 0 {
			r.SendStart += span() // deliberate idling
		}
		r.Arrive = r.SendStart + 0.25 + span()/4
		r.Start = r.Arrive
		r.Complete = r.Start + 1
		portFree = r.Arrive
	}
	return recs
}

func scheduleOf(recs []core.Record) core.Schedule {
	pl := core.NewPlatform([]float64{1, 1}, []float64{1, 1})
	return core.Schedule{Instance: core.Instance{Platform: pl}, Records: recs}
}

// TestIdleChargesEarliestRelease pins the case the first-witness scan
// under-reported: A (release 5, sent during [10, 12]) precedes B (release
// 0, sent at 12) on a port free from 0. B was pending during the whole gap
// [0, 10); the scan stopped at A, its first witness, and charged [5, 10).
func TestIdleChargesEarliestRelease(t *testing.T) {
	recs := []core.Record{
		{Task: 0, Slave: 0, Release: 5, SendStart: 10, Arrive: 12, Start: 12, Complete: 13},
		{Task: 1, Slave: 0, Release: 0, SendStart: 12, Arrive: 13, Start: 13, Complete: 14},
	}
	if got := firstWitnessIdle(recs); got != 5 {
		t.Fatalf("reference scan reports %v; the example no longer shows the under-report", got)
	}
	if got := Analyze(scheduleOf(recs)).PortIdleWithPending; got != 10 {
		t.Fatalf("idle with pending %v, want 10 (B is unsent from 0)", got)
	}
	if got := intervalUnionIdle(recs); got != 10 {
		t.Fatalf("oracle %v, want 10", got)
	}
}

// TestIdleReleaseOrderBitIdentical: when tasks go out in release order the
// sweep reproduces the old scan to the bit, whatever order the record list
// itself is in.
func TestIdleReleaseOrderBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	idled := 0
	for c := 0; c < 3000; c++ {
		recs := randomSends(rng, true)
		if c%2 == 1 {
			rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		}
		want := firstWitnessIdle(recs)
		got := Analyze(scheduleOf(recs)).PortIdleWithPending
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d: sweep %v (%#x), first-witness scan %v (%#x)\n%+v",
				c, got, math.Float64bits(got), want, math.Float64bits(want), recs)
		}
		if got > 0 {
			idled++
		}
	}
	if idled < 1000 {
		t.Fatalf("only %d of 3000 cases idled with work pending: the generator no longer exercises the sweep", idled)
	}
}

// TestIdleArbitraryOrderMatchesOracle: on any send order the sweep equals
// the interval-union definition, and is never below the old scan.
func TestIdleArbitraryOrderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1602))
	above := 0
	for c := 0; c < 3000; c++ {
		recs := randomSends(rng, false)
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		got := Analyze(scheduleOf(recs)).PortIdleWithPending
		if want := intervalUnionIdle(recs); math.Abs(got-want) > 1e-9 {
			t.Fatalf("case %d: sweep %v, interval-union oracle %v\n%+v", c, got, want, recs)
		}
		old := firstWitnessIdle(recs)
		if got < old {
			t.Fatalf("case %d: sweep %v below first-witness scan %v\n%+v", c, got, old, recs)
		}
		if got > old {
			above++
		}
	}
	if above == 0 {
		t.Fatal("no case separated the sweep from the first-witness scan")
	}
}

// TestAnalyzeObjectivesMatchSchedule: the objectives Analyze accumulates in
// its one loop are the Schedule methods' values, bit for bit.
func TestAnalyzeObjectivesMatchSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(1603))
	for c := 0; c < 200; c++ {
		s := scheduleOf(randomSends(rng, c%2 == 0))
		r := Analyze(s)
		if r.Makespan != s.Makespan() || r.MaxFlow != s.MaxFlow() ||
			math.Float64bits(r.SumFlow) != math.Float64bits(s.SumFlow()) {
			t.Fatalf("case %d: report %v/%v/%v, schedule %v/%v/%v",
				c, r.Makespan, r.MaxFlow, r.SumFlow, s.Makespan(), s.MaxFlow(), s.SumFlow())
		}
	}
}

// TestAnalyzeTrickleScale is the regression bound on the scrape path: a
// trickle population (every job released, sent and finished before the next
// arrives) puts an idle gap with no pending task before every record, the
// shape on which the first-witness scan rescanned the whole tail per gap.
// 200k records took it over a minute; the sweep needs milliseconds, so the
// bound is generous enough for a -race run on a loaded CI host.
func TestAnalyzeTrickleScale(t *testing.T) {
	const n = 200_000
	recs := make([]core.Record, n)
	for i := range recs {
		at := float64(i)
		recs[i] = core.Record{Task: core.TaskID(i), Slave: i & 1,
			Release: at, SendStart: at, Arrive: at + 0.25, Start: at + 0.25, Complete: at + 0.75}
	}
	start := time.Now()
	r := Analyze(scheduleOf(recs))
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Analyze of %d trickle records took %v: the quadratic idle scan is back", n, d)
	}
	if r.PortIdleWithPending != 0 || r.Makespan != n-0.25 || r.SumFlow != 0.75*n {
		t.Fatalf("trickle report: idle %v makespan %v sum-flow %v", r.PortIdleWithPending, r.Makespan, r.SumFlow)
	}
}
