package sim

// Differential tests for the allocation-free hot path: each refactored
// structure is pinned against a straightforward reference
// implementation of its pre-refactor behavior. The engine-level
// counterpart lives in internal/experiment (golden replicate JSON
// recorded by the pre-refactor binary) and internal/live (the
// sim-vs-live conformance suite).

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
)

// refLedger is the reference the Ledger is pinned against: the plain
// per-slave unit list, spliced on completion, and Ready as a full fold
// over the backlog on every call — no memo, no prefixes.
type refLedger struct {
	lastSync []float64
	units    [][]refUnit
}

type refUnit struct {
	task    int
	arrival float64
}

func newRefLedger(m int) *refLedger {
	return &refLedger{lastSync: make([]float64, m), units: make([][]refUnit, m)}
}

func (r *refLedger) assign(j, task int, arrival float64) {
	r.units[j] = append(r.units[j], refUnit{task, arrival})
}

func (r *refLedger) arrived(j, task int, actual float64) {
	for i := range r.units[j] {
		if r.units[j][i].task == task {
			r.units[j][i].arrival = actual
		}
	}
}

func (r *refLedger) completed(j, task int, at float64) {
	for i := range r.units[j] {
		if r.units[j][i].task == task {
			r.units[j] = append(r.units[j][:i], r.units[j][i+1:]...)
			break
		}
	}
	r.sync(j, at)
}

func (r *refLedger) fail(j int, at float64) {
	r.units[j] = nil
	r.sync(j, at)
}

func (r *refLedger) sync(j int, at float64) {
	if at > r.lastSync[j] {
		r.lastSync[j] = at
	}
}

func (r *refLedger) addSlave(at float64) {
	r.lastSync, r.units = append(r.lastSync, at), append(r.units, nil)
}

// ready folds the first n units of slave j's backlog.
func (r *refLedger) ready(j, n int, nominalComp float64) float64 {
	t := r.lastSync[j]
	for _, u := range r.units[j][:n] {
		if u.arrival > t {
			t = u.arrival
		}
		t += nominalComp
	}
	return t
}

// checkLedger compares every slave's Ready and Outstanding with the
// reference, bit for bit, twice (the second call takes the nothing-to-fold
// path).
func checkLedger(t *testing.T, where string, l *Ledger, ref *refLedger, comp []float64) {
	t.Helper()
	for j := range ref.units {
		want := ref.ready(j, len(ref.units[j]), comp[j])
		for pass := 0; pass < 2; pass++ {
			if got := l.Ready(j, comp[j]); got != want {
				t.Fatalf("%s: Ready(%d) = %v (pass %d), reference fold = %v", where, j, got, pass, want)
			}
		}
		if got := l.Outstanding(j); got != len(ref.units[j]) {
			t.Fatalf("%s: Outstanding(%d) = %d, reference %d", where, j, got, len(ref.units[j]))
		}
	}
}

// TestLedgerReadyDifferential drives mutation streams through the
// incremental Ledger and checks every slave's Ready against the
// reference fold after every mutation, bit for bit.
func TestLedgerReadyDifferential(t *testing.T) {
	// A nominal FIFO slave set behind one port that outruns it (the
	// serving regime: backlogs hundreds deep): every completion lands
	// exactly on the head's prefix, so the later prefixes must survive it
	// — the O(1) path — and still equal the reference.
	t.Run("nominal FIFO replay", func(t *testing.T) {
		comm := []float64{0.1, 0.3, 0.2}
		comp := []float64{0.4, 0.8, 1.7}
		m := len(comm)
		type event struct {
			at          float64
			arrive      bool // else completion
			slave, task int
		}
		var events []event
		free := make([]float64, m)
		port := 0.0
		rng := rand.New(rand.NewSource(11))
		l, ref := NewLedger(m), newRefLedger(m)
		apply := func(ev event) {
			if ev.arrive {
				l.Arrived(ev.slave, ev.task, ev.at)
				ref.arrived(ev.slave, ev.task, ev.at)
			} else {
				l.Completed(ev.slave, ev.task, ev.at)
				ref.completed(ev.slave, ev.task, ev.at)
				if s := l.slaves[ev.slave]; s.folded != len(s.units)-s.head {
					t.Fatalf("task %d: a nominal completion at the head re-folds %d of %d units",
						ev.task, len(s.units)-s.head-s.folded, len(s.units)-s.head)
				}
			}
			checkLedger(t, "replay", l, ref, comp)
		}
		for task := 0; task < 1500; task++ {
			j := rng.Intn(m)
			// Everything the master hears before this send starts.
			sort.SliceStable(events, func(a, b int) bool { return events[a].at < events[b].at })
			for len(events) > 0 && events[0].at <= port {
				apply(events[0])
				events = events[1:]
			}
			arrival := port + comm[j]
			l.Assign(j, task, arrival)
			ref.assign(j, task, arrival)
			checkLedger(t, "replay", l, ref, comp)
			start := max(free[j], arrival)
			free[j] = start + comp[j]
			events = append(events, event{arrival, true, j, task}, event{free[j], false, j, task})
			port = arrival
		}
		sort.SliceStable(events, func(a, b int) bool { return events[a].at < events[b].at })
		for _, ev := range events {
			apply(ev)
		}
	})

	// Everything else: completions at perturbed times, at exactly the
	// head's prefix and mid-queue, Fail, Sync, AddSlave and a nominalComp
	// that changes under a standing backlog.
	t.Run("random mutations", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 30; trial++ {
			l, ref := NewLedger(4), newRefLedger(4)
			comp := []float64{1.5, 2.25, 0.75, 3}
			now := 0.0
			nextTask := 0
			for op := 0; op < 600; op++ {
				m := len(comp)
				j := rng.Intn(m)
				now += rng.Float64()
				backlog := ref.units[j]
				switch k := rng.Intn(16); {
				case k < 6: // assign
					at := now + rng.Float64()
					l.Assign(j, nextTask, at)
					ref.assign(j, nextTask, at)
					nextTask++
				case k < 8 && len(backlog) > 0: // arrival corrects the newest unit, or any
					task := backlog[len(backlog)-1].task
					if rng.Intn(4) == 0 {
						task = backlog[rng.Intn(len(backlog))].task
					}
					l.Arrived(j, task, now)
					ref.arrived(j, task, now)
				case k < 10 && len(backlog) > 0: // perturbed completion of the oldest
					l.Completed(j, backlog[0].task, now)
					ref.completed(j, backlog[0].task, now)
				case k < 12 && len(backlog) > 0: // nominal completion: exactly the head's prefix
					at := ref.ready(j, 1, comp[j])
					l.Completed(j, backlog[0].task, at)
					ref.completed(j, backlog[0].task, at)
				case k < 13 && len(backlog) > 0: // mid-queue completion
					task := backlog[rng.Intn(len(backlog))].task
					l.Completed(j, task, now)
					ref.completed(j, task, now)
				case k < 14: // sync
					l.Sync(j, now)
					ref.sync(j, now)
				case k < 15: // fail clears the backlog
					l.Fail(j, now)
					ref.fail(j, now)
				default:
					if rng.Intn(2) == 0 && m < 7 {
						l.AddSlave(now)
						ref.addSlave(now)
						comp = append(comp, 0.5+rng.Float64())
					} else { // speed drift: the nominal computation time changes
						comp[j] = 0.5 + float64(3*rng.Float64())
					}
				}
				checkLedger(t, fmt.Sprintf("trial %d op %d", trial, op), l, ref, comp)
			}
		}
	})
}

// TestTaskFIFODifferential pins the head-indexed queue against a plain
// slice driven by the pre-refactor splice operations.
func TestTaskFIFODifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		var q taskFIFO
		var ref []int
		next := 0
		for op := 0; op < 500; op++ {
			switch k := rng.Intn(4); {
			case k == 0 || len(ref) == 0: // push
				q.Push(next)
				ref = append(ref, next)
				next++
			case k == 1: // pop front
				got := q.PopFront()
				want := ref[0]
				ref = ref[1:]
				if got != want {
					t.Fatalf("trial %d op %d: PopFront = %d, want %d", trial, op, got, want)
				}
			default: // remove at random position (the mid-queue dispatch path)
				i := rng.Intn(len(ref))
				if got := q.IndexOf(ref[i]); got != i {
					t.Fatalf("trial %d op %d: IndexOf(%d) = %d, want %d", trial, op, ref[i], got, i)
				}
				q.RemoveAt(i)
				ref = append(ref[:i], ref[i+1:]...)
			}
			if q.Len() != len(ref) {
				t.Fatalf("trial %d op %d: Len = %d, want %d", trial, op, q.Len(), len(ref))
			}
			for i, want := range ref {
				if got := q.At(i); got != want {
					t.Fatalf("trial %d op %d: At(%d) = %d, want %d", trial, op, i, got, want)
				}
			}
		}
	}
}

// TestEngineSteadyStateAllocs pins the tentpole claim at the engine
// level: after construction, driving a bag workload to completion
// allocates only the per-run bookkeeping (snapshot assembly is not
// measured here), not per-event garbage.
func TestEngineSteadyStateAllocs(t *testing.T) {
	pl := theorem1Platform()
	run := func(n int) float64 {
		tasks := core.Bag(n)
		return testing.AllocsPerRun(20, func() {
			e := New(pl, greedyFinish{}, tasks)
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Construction allocates a bounded number of slices (engine fields,
	// ledger, clones, the snapshot), so the per-run count is a constant;
	// what must NOT happen is allocation growing with the task count.
	// Before the refactor every event boxed through container/heap, so
	// doubling the workload added hundreds of allocations.
	small, large := run(60), run(240)
	if grown := large - small; grown > 10 {
		t.Fatalf("engine allocations grew by %.0f when the workload grew 60→240 tasks (want ~0: per-event allocation regression; base %.0f)",
			grown, small)
	}
}
