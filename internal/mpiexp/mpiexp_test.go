package mpiexp

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestCrossValidationAgainstDES is the substrate-equivalence check called
// out in DESIGN.md (M1): the same scheduler, platform and workload must
// produce the same schedule, bit for bit, on the emulated cluster as on
// the discrete-event engine — for every paper heuristic, on every
// platform class, with and without size perturbation.
func TestCrossValidationAgainstDES(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 8; trial++ {
		class := core.Classes[trial%4]
		pl := core.Random(rng, class, core.GenConfig{M: 2 + rng.Intn(3)})
		cfg := workload.Config{
			N:       30,
			Pattern: workload.Poisson,
			Rate:    2,
		}
		if trial%2 == 1 {
			cfg.Perturb = 0.1 // schedulers see nominal costs; engines charge actual
		}
		tasks := workload.Generate(rng, cfg)
		for _, name := range sched.Names() {
			des, err := sim.Simulate(pl, sched.New(name), tasks)
			if err != nil {
				t.Fatalf("trial %d %s DES: %v", trial, name, err)
			}
			emu, err := Run(Config{Platform: pl, Tasks: tasks, Scheduler: sched.New(name)})
			if err != nil {
				t.Fatalf("trial %d %s emulation: %v", trial, name, err)
			}
			for i := range des.Records {
				a, b := des.Records[i], emu.Schedule.Records[i]
				if a.Slave != b.Slave || a.SendStart != b.SendStart || a.Arrive != b.Arrive ||
					a.Start != b.Start || a.Complete != b.Complete {
					t.Fatalf("trial %d %s task %d: DES %+v vs emulation %+v", trial, name, i, a, b)
				}
			}
		}
	}
}

func TestEmulatedScheduleIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	pl := core.Random(rng, core.Heterogeneous, core.GenConfig{})
	res, err := Run(Config{
		Platform:  pl,
		Tasks:     core.Bag(40),
		Scheduler: sched.NewLS(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ValidateSchedule(res.Schedule); err != nil {
		t.Fatal(err)
	}
	if !core.WorkConserving(res.Schedule) {
		t.Fatal("LS idled on the emulated cluster")
	}
}

func TestComputePayloadChecksum(t *testing.T) {
	pl := core.NewPlatform([]float64{0.1, 0.1}, []float64{0.5, 0.9})
	run := func() Result {
		res, err := Run(Config{
			Platform:       pl,
			Tasks:          core.Bag(6),
			Scheduler:      sched.NewLS(),
			MatrixSize:     8,
			ComputePayload: true,
			Seed:           99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Checksum == 0 {
		t.Fatal("payload checksum is zero — determinants not computed")
	}
	if again := run().Checksum; res.Checksum != again {
		t.Fatalf("checksum not reproducible: %v vs %v", res.Checksum, again)
	}
	// The checksum is every task's determinant, summed in the order the
	// master learned of the completions (same-instant ones by slave).
	order := append([]core.Record(nil), res.Schedule.Records...)
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].Complete != order[j].Complete {
			return order[i].Complete < order[j].Complete
		}
		return order[i].Slave < order[j].Slave
	})
	want := 0.0
	for _, r := range order {
		want += checksumMatrix(99, int(r.Task), 8).Det()
	}
	if res.Checksum != want {
		t.Fatalf("checksum %v, want the completion-order sum %v", res.Checksum, want)
	}
}

// TestRunRejectsEmptyPlatform: a platform with no slaves is the runtime's
// validation error, not a crash inside the master.
func TestRunRejectsEmptyPlatform(t *testing.T) {
	_, err := Run(Config{Platform: core.Platform{}, Tasks: core.Bag(3), Scheduler: sched.NewLS()})
	if err == nil || !strings.Contains(err.Error(), "platform has no slaves") {
		t.Fatalf("empty platform: %v", err)
	}
}

// TestProberProbesEachSlaveOnce: the calibration policy sends probe j to
// slave j, so the run leaves exactly one record per slave.
func TestProberProbesEachSlaveOnce(t *testing.T) {
	pl := core.NewPlatform([]float64{0.3, 0.1, 0.2}, []float64{1, 5, 2})
	res, err := Run(Config{Platform: pl, Tasks: core.Bag(pl.M()), Scheduler: prober{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule.Records) != pl.M() {
		t.Fatalf("%d records for %d slaves", len(res.Schedule.Records), pl.M())
	}
	for j, r := range res.Schedule.Records {
		if r.Slave != j {
			t.Fatalf("probe %d went to slave %d", j, r.Slave)
		}
	}
}

func TestEmptyWorkload(t *testing.T) {
	pl := core.NewPlatform([]float64{1}, []float64{1})
	res, err := Run(Config{Platform: pl, Tasks: nil, Scheduler: sched.NewLS()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule.Records) != 0 {
		t.Fatal("records for empty workload")
	}
}

func TestCalibrationMeasuresHardware(t *testing.T) {
	hw := HardwareSpec{
		LinkLatency:   []float64{0.001, 0.002},
		LinkBandwidth: []float64{1e6, 5e5},
		Speed:         []float64{1e7, 2e7},
	}
	target := core.NewPlatform([]float64{0.05, 0.2}, []float64{0.4, 0.1})
	cal, err := Calibrate(hw, target, 30)
	if err != nil {
		t.Fatal(err)
	}
	// Base costs must equal the hardware model exactly: latency + bytes/bw
	// and flops/speed.
	bytes := 8.0 * 30 * 30
	flops := 2.0 * 30 * 30 * 30 / 3
	for j := 0; j < 2; j++ {
		wantC := hw.LinkLatency[j] + bytes/hw.LinkBandwidth[j]
		if math.Abs(cal.BaseComm[j]-wantC) > 1e-12 {
			t.Errorf("slave %d base comm %v, want %v", j, cal.BaseComm[j], wantC)
		}
		wantP := flops / hw.Speed[j]
		if math.Abs(cal.BaseComp[j]-wantP) > 1e-12 {
			t.Errorf("slave %d base comp %v, want %v", j, cal.BaseComp[j], wantP)
		}
		if cal.NC[j] < 1 || cal.NP[j] < 1 {
			t.Errorf("slave %d repetition counts %d, %d", j, cal.NC[j], cal.NP[j])
		}
		if math.Abs(cal.Achieved.C[j]-float64(cal.NC[j])*cal.BaseComm[j]) > 1e-12 {
			t.Errorf("achieved comm inconsistent with repetitions")
		}
	}
	// Rounding to整 repetitions keeps the achieved platform within half a
	// base cost of the target.
	for j := 0; j < 2; j++ {
		if math.Abs(cal.Achieved.C[j]-target.C[j]) > cal.BaseComm[j]/2+1e-12 {
			t.Errorf("slave %d achieved comm %v too far from target %v", j, cal.Achieved.C[j], target.C[j])
		}
	}
	if cal.MaxRelativeError() < 0 {
		t.Error("negative relative error")
	}
}

func TestCalibrationGuards(t *testing.T) {
	target := core.NewPlatform([]float64{1}, []float64{1})
	if _, err := Calibrate(HardwareSpec{}, target, 10); err == nil {
		t.Error("empty hardware accepted")
	}
	bad := HardwareSpec{LinkLatency: []float64{0}, LinkBandwidth: []float64{-1}, Speed: []float64{1}}
	if _, err := Calibrate(bad, target, 10); err == nil {
		t.Error("negative bandwidth accepted")
	}
	for _, x := range []float64{math.NaN(), math.Inf(1)} {
		for _, hw := range []HardwareSpec{
			{LinkLatency: []float64{x}, LinkBandwidth: []float64{1}, Speed: []float64{1}},
			{LinkLatency: []float64{0}, LinkBandwidth: []float64{x}, Speed: []float64{1}},
			{LinkLatency: []float64{0}, LinkBandwidth: []float64{1}, Speed: []float64{x}},
		} {
			if _, err := Calibrate(hw, target, 10); err == nil {
				t.Errorf("hardware %+v accepted", hw)
			}
		}
	}
	two := HardwareSpec{LinkLatency: []float64{0, 0}, LinkBandwidth: []float64{1, 1}, Speed: []float64{1, 1}}
	if _, err := Calibrate(two, target, 10); err == nil {
		t.Error("slave-count mismatch accepted")
	}
}

func TestCalibratedRunReachesTargetShape(t *testing.T) {
	// End-to-end Section 4.2: calibrate a synthetic heterogeneous cluster
	// against a target platform, then run a workload on the achieved
	// platform; the heterogeneity (cost ratios) must match the target's
	// within the rounding granularity.
	hw := HardwareSpec{
		LinkLatency:   []float64{0, 0, 0},
		LinkBandwidth: []float64{4e6, 2e6, 1e6},
		Speed:         []float64{4e8, 1e8, 2e8},
	}
	target := core.NewPlatform([]float64{0.02, 0.1, 0.5}, []float64{1, 4, 0.5})
	cal, err := Calibrate(hw, target, 30)
	if err != nil {
		t.Fatal(err)
	}
	if cal.MaxRelativeError() > 0.5 {
		t.Fatalf("calibration error %v too large", cal.MaxRelativeError())
	}
	res, err := Run(Config{
		Platform:  cal.Achieved,
		Tasks:     core.Bag(20),
		Scheduler: sched.NewLS(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan() <= 0 {
		t.Fatal("empty schedule")
	}
}
