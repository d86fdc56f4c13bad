// Package mpiexp reproduces the paper's Section-4 experiment — one
// thousand matrix-determinant tasks on a calibrated five-machine cluster
// — as a configuration of the live runtime (internal/live) on its
// virtual clock: the workload is replayed at its release times, the
// master and slaves are live's, and the determinants are computed as the
// completions are observed. Because it is the live runtime, the run is
// bit-identical to the discrete-event engine's; a cross-validation test
// pins that for every paper heuristic.
//
// The paper's calibration protocol is reproduced too: probe one matrix
// per slave to estimate its link and compute costs, then choose
// repetition counts nc_j and np_j that shape the physical cluster into
// the desired heterogeneous platform (Section 4.2).
package mpiexp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/live"
	"repro/internal/sim"
)

// Config describes one emulated experiment.
type Config struct {
	// Platform gives the target per-task costs (seconds) of each slave.
	Platform core.Platform
	// Tasks is the workload (releases and perturbation scales).
	Tasks []core.Task
	// Scheduler is the master's policy — any sim.Scheduler.
	Scheduler sim.Scheduler
	// MatrixSize is the side length of the task matrices (default 30).
	// Virtual costs come from Platform, not from the matrices.
	MatrixSize int
	// ComputePayload makes the run really factor each task's matrix
	// (checksummed); virtual time is unaffected. Keep small for large
	// workloads.
	ComputePayload bool
	// Seed drives matrix generation when ComputePayload is set.
	Seed int64
}

// Result is the outcome of an emulated run.
type Result struct {
	Schedule core.Schedule
	Checksum float64 // sum of computed determinants (0 unless ComputePayload)
}

// Run executes the experiment in virtual time and returns the schedule
// observed by the master, validated against the one-port model.
func Run(cfg Config) (Result, error) {
	if cfg.MatrixSize <= 0 {
		cfg.MatrixSize = 30
	}
	var checksum float64
	res, err := live.Run(live.Config{
		Platform:  cfg.Platform,
		Scheduler: cfg.Scheduler,
		World:     live.NewVirtual(),
		Sources:   []func(*live.Source){live.Replay(cfg.Tasks)},
		// Determinants are summed in completion order, the order the
		// master learns of them.
		Observer: func(ev live.Event) {
			if cfg.ComputePayload && ev.Kind == live.EvCompleted {
				checksum += checksumMatrix(cfg.Seed, ev.Task, cfg.MatrixSize).Det()
			}
		},
	})
	if err != nil {
		return Result{}, fmt.Errorf("mpiexp: %w", err)
	}
	if err := core.ValidateSchedule(res.Schedule); err != nil {
		return Result{}, fmt.Errorf("mpiexp: emulation produced an infeasible schedule: %w", err)
	}
	return Result{Schedule: res.Schedule, Checksum: checksum}, nil
}

// checksumMatrix generates the task's matrix deterministically from the
// experiment seed and task index.
func checksumMatrix(seed int64, task, n int) linalg.Matrix {
	rng := newSplitMix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(task+1))
	m := linalg.NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = rng.float()*2 - 1
	}
	return m
}

// splitMix is a tiny deterministic generator so payload matrices do not
// depend on math/rand stream state.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix) float() float64 {
	return float64(s.next()>>11) / (1 << 53)
}
