package mpiexp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/sim"
)

// HardwareSpec models the physical machines of the paper's testbed: five
// desktops with different network cards and CPUs behind a switch.
type HardwareSpec struct {
	LinkLatency   []float64 // seconds per message
	LinkBandwidth []float64 // bytes per second
	Speed         []float64 // flops per second
}

// M returns the number of slaves.
func (hw HardwareSpec) M() int { return len(hw.Speed) }

// validate checks dimensional consistency.
func (hw HardwareSpec) validate() error {
	if hw.M() == 0 || len(hw.LinkLatency) != hw.M() || len(hw.LinkBandwidth) != hw.M() {
		return fmt.Errorf("mpiexp: inconsistent hardware spec (m=%d, lat=%d, bw=%d)",
			hw.M(), len(hw.LinkLatency), len(hw.LinkBandwidth))
	}
	for j := 0; j < hw.M(); j++ {
		// Written so that NaN, which compares false with everything, fails.
		bw, sp, lat := hw.LinkBandwidth[j], hw.Speed[j], hw.LinkLatency[j]
		if !(bw > 0) || !(sp > 0) || !(lat >= 0) || math.IsInf(bw, 1) || math.IsInf(sp, 1) || math.IsInf(lat, 1) {
			return fmt.Errorf("mpiexp: non-physical hardware for slave %d", j)
		}
	}
	return nil
}

// Calibration is the outcome of the paper's Section-4.2 protocol: probe
// one matrix per slave, measure base costs, and pick repetition counts
// that shape the cluster into the target platform.
type Calibration struct {
	MatrixSize int
	BaseComm   []float64 // measured ĉ_j: one probe transfer
	BaseComp   []float64 // measured p̂_j: one determinant
	NC, NP     []int     // repetition counts per task
	Target     core.Platform
	Achieved   core.Platform // nc_j·ĉ_j and np_j·p̂_j
}

// MaxRelativeError reports the worst relative deviation of the achieved
// platform from the target, over both cost vectors.
func (cal Calibration) MaxRelativeError() float64 {
	worst := 0.0
	for j := range cal.NC {
		ec := math.Abs(cal.Achieved.C[j]-cal.Target.C[j]) / cal.Target.C[j]
		ep := math.Abs(cal.Achieved.P[j]-cal.Target.P[j]) / cal.Target.P[j]
		worst = math.Max(worst, math.Max(ec, ep))
	}
	return worst
}

// Calibrate runs the probe protocol on the emulated hardware: the master
// ships one matrix to each slave in turn and the transfer and the
// determinant are timed off the run's records; repetition counts are then
// the rounded ratios to the target costs, exactly as the paper scales its
// physical machines.
func Calibrate(hw HardwareSpec, target core.Platform, matrixN int) (Calibration, error) {
	if err := hw.validate(); err != nil {
		return Calibration{}, err
	}
	if target.M() != hw.M() {
		return Calibration{}, fmt.Errorf("mpiexp: target has %d slaves, hardware %d", target.M(), hw.M())
	}
	if matrixN <= 0 {
		matrixN = 30
	}
	m := hw.M()
	bytes := linalg.Bytes(matrixN)
	flops := linalg.DetFlops(matrixN)
	machines := core.Platform{C: make([]float64, m), P: make([]float64, m)}
	for j := 0; j < m; j++ {
		machines.C[j] = hw.LinkLatency[j] + bytes/hw.LinkBandwidth[j]
		machines.P[j] = flops / hw.Speed[j]
	}
	probe, err := Run(Config{Platform: machines, Tasks: core.Bag(m), Scheduler: prober{}, MatrixSize: matrixN})
	if err != nil {
		return Calibration{}, fmt.Errorf("mpiexp: calibration run failed: %w", err)
	}
	baseComm := make([]float64, m)
	baseComp := make([]float64, m)
	for _, r := range probe.Schedule.Records {
		baseComm[r.Slave] = r.Arrive - r.SendStart
		baseComp[r.Slave] = r.Complete - r.Start
	}

	cal := Calibration{
		MatrixSize: matrixN,
		BaseComm:   baseComm,
		BaseComp:   baseComp,
		NC:         make([]int, m),
		NP:         make([]int, m),
		Target:     target.Clone(),
	}
	achC := make([]float64, m)
	achP := make([]float64, m)
	for j := 0; j < m; j++ {
		cal.NC[j] = repetitions(target.C[j], baseComm[j])
		cal.NP[j] = repetitions(target.P[j], baseComp[j])
		achC[j] = float64(cal.NC[j]) * baseComm[j]
		achP[j] = float64(cal.NP[j]) * baseComp[j]
	}
	cal.Achieved = core.NewPlatform(achC, achP)
	return cal, nil
}

// prober is the calibration master's policy: probe matrix j goes to
// slave j.
type prober struct{}

func (prober) Name() string        { return "prober" }
func (prober) Reset(core.Platform) {}
func (prober) Decide(v sim.View) sim.Action {
	task, _ := v.FirstPending()
	return sim.Send(task, int(task))
}

// repetitions rounds the ratio target/base to the nearest positive count.
func repetitions(target, base float64) int {
	n := int(math.Round(target / base))
	if n < 1 {
		n = 1
	}
	return n
}
