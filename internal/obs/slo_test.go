package obs_test

import (
	"slices"
	"testing"

	"repro/internal/obs"
)

func mustSLO(t *testing.T, obj obs.Objective, windows ...float64) *obs.SLO {
	t.Helper()
	s, err := obs.NewSLO(obj, windows...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestObjectiveValidate(t *testing.T) {
	cases := []struct {
		name string
		obj  obs.Objective
		ok   bool
	}{
		{"latency ok", obs.Objective{Name: "p99", Kind: obs.ObjectiveLatency, ThresholdSeconds: 0.5, Target: 0.99}, true},
		{"availability ok", obs.Objective{Name: "avail", Kind: obs.ObjectiveAvailability, Target: 0.999}, true},
		{"no name", obs.Objective{Kind: obs.ObjectiveAvailability, Target: 0.9}, false},
		{"bad kind", obs.Objective{Name: "x", Kind: "throughput", Target: 0.9}, false},
		{"latency no threshold", obs.Objective{Name: "x", Kind: obs.ObjectiveLatency, Target: 0.9}, false},
		{"target 0", obs.Objective{Name: "x", Kind: obs.ObjectiveAvailability, Target: 0}, false},
		{"target 1", obs.Objective{Name: "x", Kind: obs.ObjectiveAvailability, Target: 1}, false},
	}
	for _, c := range cases {
		if err := c.obj.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestSLOWindows pins NewSLO's window handling: the 5m/1h default, a
// full ascending sort (Windows, Burn and the window_seconds label order
// all expose it), and the rejection of non-positive windows.
func TestSLOWindows(t *testing.T) {
	obj := obs.Objective{Name: "a", Kind: obs.ObjectiveAvailability, Target: 0.9}
	cases := []struct {
		name string
		in   []float64
		want []float64 // nil: NewSLO must fail
	}{
		{"default", nil, []float64{300, 3600}},
		{"already ascending", []float64{10, 100}, []float64{10, 100}},
		{"two descending", []float64{100, 10}, []float64{10, 100}},
		{"three descending", []float64{3600, 300, 60}, []float64{60, 300, 3600}},
		{"negative", []float64{60, -1}, nil},
		{"zero", []float64{0}, nil},
	}
	for _, c := range cases {
		s, err := obs.NewSLO(obj, c.in...)
		if c.want == nil {
			if err == nil {
				t.Errorf("%s: windows %v accepted", c.name, c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := s.Windows(); !slices.Equal(got, c.want) {
			t.Errorf("%s: Windows() = %v, want %v", c.name, got, c.want)
		}
		for i, b := range s.Burn(0) {
			if b.WindowSeconds != c.want[i] {
				t.Errorf("%s: Burn()[%d] is the %v s window, want %v", c.name, i, b.WindowSeconds, c.want[i])
			}
		}
	}
}

func TestSLOBurnRates(t *testing.T) {
	s := mustSLO(t, obs.Objective{Name: "avail", Kind: obs.ObjectiveAvailability, Target: 0.9}, 10, 100)
	// 100 events in the first 10 seconds: 80 good, 20 bad — error rate
	// 0.2, budget 0.1, burn 2.0 over both windows.
	for i := 0; i < 100; i++ {
		s.Record(float64(i)/10, i%5 != 0)
	}
	burns := s.Burn(9)
	if len(burns) != 2 || burns[0].WindowSeconds != 10 || burns[1].WindowSeconds != 100 {
		t.Fatalf("burns = %+v", burns)
	}
	for _, b := range burns {
		if b.Total != 100 || b.Good != 80 {
			t.Fatalf("window %v counts = %d/%d, want 80/100", b.WindowSeconds, b.Good, b.Total)
		}
		if b.BurnRate < 1.99 || b.BurnRate > 2.01 || b.OK {
			t.Fatalf("window %v burn = %+v, want ~2.0 not OK", b.WindowSeconds, b)
		}
	}
	if s.Healthy(9) {
		t.Fatal("burning at 2x should not be healthy")
	}
	if good, total := s.Totals(); good != 80 || total != 100 {
		t.Fatalf("totals = %d/%d", good, total)
	}

	// 20 seconds later the short window has decayed to empty (OK again);
	// the long window still sees the errors.
	burns = s.Burn(30)
	if burns[0].Total != 0 || !burns[0].OK || burns[0].BurnRate != 0 {
		t.Fatalf("short window after decay = %+v", burns[0])
	}
	if burns[1].Total != 100 || burns[1].OK {
		t.Fatalf("long window after decay = %+v", burns[1])
	}
}

func TestSLOLatencyKind(t *testing.T) {
	s := mustSLO(t, obs.Objective{Name: "p95", Kind: obs.ObjectiveLatency, ThresholdSeconds: 0.5, Target: 0.95}, 60)
	for i := 0; i < 100; i++ {
		lat := 0.1
		if i%10 == 0 {
			lat = 2.0 // 10% over threshold
		}
		s.RecordLatency(float64(i)/10, lat)
	}
	b := s.Burn(9)[0]
	if b.Good != 90 || b.Total != 100 {
		t.Fatalf("latency counts = %d/%d", b.Good, b.Total)
	}
	// Error rate 0.1 against a 0.05 budget: burn 2.
	if b.BurnRate < 1.99 || b.BurnRate > 2.01 {
		t.Fatalf("latency burn = %v", b.BurnRate)
	}
	// A sample exactly at the threshold is good.
	s2 := mustSLO(t, obs.Objective{Name: "p95", Kind: obs.ObjectiveLatency, ThresholdSeconds: 0.5, Target: 0.95}, 60)
	s2.RecordLatency(0, 0.5)
	if b := s2.Burn(0)[0]; b.Good != 1 {
		t.Fatalf("threshold-equal sample = %+v, want good", b)
	}
}

func TestSLOIdleDecayAndLateSamples(t *testing.T) {
	s := mustSLO(t, obs.Objective{Name: "a", Kind: obs.ObjectiveAvailability, Target: 0.5}, 5)
	s.Record(0, false)
	// A jump far past the ring zeroes everything.
	s.Record(1000, true)
	b := s.Burn(1000)[0]
	if b.Total != 1 || b.Good != 1 || !b.OK {
		t.Fatalf("after idle jump = %+v", b)
	}
	// A sample older than the ring is dropped, not misfiled.
	s.Record(100, false)
	if b := s.Burn(1000)[0]; b.Total != 1 {
		t.Fatalf("stale sample counted: %+v", b)
	}
	// All-time totals still count everything that was accepted.
	if good, total := s.Totals(); good != 1 || total != 2 {
		t.Fatalf("totals = %d/%d", good, total)
	}
}

func TestSLORecordAllocationFree(t *testing.T) {
	s := mustSLO(t, obs.Objective{Name: "a", Kind: obs.ObjectiveAvailability, Target: 0.99}, 300, 3600)
	tm := 0.0
	if n := testing.AllocsPerRun(500, func() {
		tm += 0.25
		s.Record(tm, true)
	}); n != 0 {
		t.Fatalf("Record allocates %v times per op, want 0", n)
	}
}
