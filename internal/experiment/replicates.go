package experiment

// The replicate sweep behind `msched -repeat`: R independently seeded
// replicates of one (algorithm, platform, workload, scenario) cell,
// fanned out over the runner's deterministic worker pool. It lives in
// the library rather than the CLI so the differential engine suite can
// reproduce the exact machine-readable record `msched -repeat -json`
// writes — the committed pre-refactor goldens in testdata/ pin the
// optimized engine to the old engine's bytes — while cmd/msched stays a
// thin flag-parsing shell.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ReplicateOptions mirrors msched's flags for the -repeat path. CFlag,
// PFlag and ReleasesFlag carry the raw comma-separated CLI strings (the
// recorded params preserve them verbatim); empty strings select the
// random platform class / generated workload instead.
type ReplicateOptions struct {
	Algo         string
	CFlag, PFlag string // explicit platform vectors, e.g. "1,1" / "3,7"
	Class        string // random platform class when CFlag/PFlag are empty
	M            int
	Seed         int64
	ReleasesFlag string // explicit release times, overrides N/Arrival
	N            int
	Arrival      string // bag, poisson, uniform, bursty, periodic
	Rate         float64
	Perturb      float64
	Scenario     string // empty = static run
	Intensity    float64
}

// Replicates runs the replicate sweep: one shard per replicate, each
// with its own platform and workload streams derived from the root
// seed. The result is bit-identical for every worker count.
func Replicates(repeat, workers int, o ReplicateOptions) (runner.Result, error) {
	// Validate every static argument once, before fanning out: otherwise
	// runner.Map reports the same bad class or arrival once per
	// replicate.
	if err := sched.Validate(o.Algo); err != nil {
		return runner.Result{}, err
	}
	probe := runner.RNG(o.Seed, "msched/validate")
	if _, err := BuildPlatform(o.CFlag, o.PFlag, o.Class, o.M, probe); err != nil {
		return runner.Result{}, err
	}
	if _, err := BuildTasks(o.ReleasesFlag, o.N, o.Arrival, o.Rate, o.Perturb, probe); err != nil {
		return runner.Result{}, err
	}
	cells, err := runner.Map(workers, repeat, func(r int) (runner.Cell, error) {
		key := fmt.Sprintf("msched/replicate=%04d", r)
		cell := runner.NewCell(o.Seed, key)
		pl, err := BuildPlatform(o.CFlag, o.PFlag, o.Class, o.M, runner.RNG(o.Seed, key+"/platform"))
		if err != nil {
			return cell, err
		}
		tasks, err := BuildTasks(o.ReleasesFlag, o.N, o.Arrival, o.Rate, o.Perturb, runner.RNG(o.Seed, key+"/workload"))
		if err != nil {
			return cell, err
		}
		if o.Scenario != "" {
			sc, static, err := GenerateScenario(o.Scenario, o.Intensity, o.Algo,
				runner.RNG(o.Seed, key+"/scenario"), pl, tasks)
			if err != nil {
				return cell, fmt.Errorf("%s: %w", key, err)
			}
			out, err := scenario.Run(pl, sched.FailSafe(sched.New(o.Algo)), tasks, sc)
			if err != nil {
				return cell, fmt.Errorf("%s: %w", key, err)
			}
			cell.Values["makespan"] = out.Schedule.Makespan()
			cell.Values["max-flow"] = out.Schedule.MaxFlow()
			cell.Values["sum-flow"] = out.Schedule.SumFlow()
			cell.Values["makespan-degradation"] = out.Schedule.Makespan() / static.Makespan()
			cell.Values["lost"] = float64(out.Lost)
			cell.Values["redispatched"] = float64(out.Redispatched)
			return cell, nil
		}
		s, err := sim.Simulate(pl, sched.New(o.Algo), tasks)
		if err != nil {
			return cell, fmt.Errorf("%s: %w", key, err)
		}
		cell.Values["makespan"] = s.Makespan()
		cell.Values["max-flow"] = s.MaxFlow()
		cell.Values["sum-flow"] = s.SumFlow()
		return cell, nil
	})
	if err != nil {
		return runner.Result{}, err
	}
	params := map[string]any{
		"algo": o.Algo, "m": o.M, "n": o.N,
		"arrival": o.Arrival, "rate": o.Rate, "perturb": o.Perturb,
	}
	if o.Scenario != "" {
		params["scenario"] = o.Scenario
		params["intensity"] = o.Intensity
	}
	// Record the platform the replicates actually used: the explicit
	// -c/-p vectors (and -releases) override the random class.
	if o.CFlag != "" {
		params["c"], params["p"] = o.CFlag, o.PFlag
	} else {
		params["class"] = o.Class
	}
	if o.ReleasesFlag != "" {
		params["releases"] = o.ReleasesFlag
	}
	res := runner.Result{
		Experiment: "msched/" + o.Algo,
		Params:     params,
		RootSeed:   o.Seed,
		Cells:      cells,
	}
	res.Summarize()
	return res, nil
}

// GenerateScenario draws the dynamic-platform timeline for one instance:
// the horizon is the algorithm's own static makespan on the identical
// instance, so event density is calibrated to the run, and the static
// schedule doubles as the degradation baseline.
func GenerateScenario(kind string, intensity float64, algo string, rng *rand.Rand,
	pl core.Platform, tasks []core.Task) (scenario.Scenario, core.Schedule, error) {
	static, err := sim.Simulate(pl, sched.New(algo), tasks)
	if err != nil {
		return scenario.Scenario{}, core.Schedule{}, fmt.Errorf("static baseline: %w", err)
	}
	return BuildScenario(kind, rng, pl, static.Makespan(), intensity), static, nil
}

// BuildPlatform resolves the CLI-style platform spec: explicit c/p
// vectors when given (both or neither), otherwise a random platform of
// the named class drawn from rng.
func BuildPlatform(cFlag, pFlag, class string, m int, rng *rand.Rand) (core.Platform, error) {
	if (cFlag == "") != (pFlag == "") {
		return core.Platform{}, fmt.Errorf("-c and -p must be given together")
	}
	if cFlag != "" {
		c, err := ParseFloats(cFlag)
		if err != nil {
			return core.Platform{}, fmt.Errorf("-c: %w", err)
		}
		p, err := ParseFloats(pFlag)
		if err != nil {
			return core.Platform{}, fmt.Errorf("-p: %w", err)
		}
		if len(c) != len(p) {
			return core.Platform{}, fmt.Errorf("-c has %d entries, -p has %d", len(c), len(p))
		}
		// Operator input: refused by the one validator (zero, negative,
		// NaN and Inf costs alike), not by NewPlatform's panic.
		pl := core.Platform{C: c, P: p}
		if err := pl.Validate(); err != nil {
			return core.Platform{}, fmt.Errorf("-c/-p: %w", err)
		}
		return pl, nil
	}
	cl, err := core.ParseClass(class)
	if err != nil {
		return core.Platform{}, err
	}
	return core.Random(rng, cl, core.GenConfig{M: m}), nil
}

// BuildTasks resolves the CLI-style workload spec: explicit release
// times when given, otherwise n tasks from the named arrival pattern.
func BuildTasks(releases string, n int, arrival string, rate, perturb float64, rng *rand.Rand) ([]core.Task, error) {
	if releases != "" {
		times, err := ParseFloats(releases)
		if err != nil {
			return nil, fmt.Errorf("-releases: %w", err)
		}
		return core.ReleasesAt(times...), nil
	}
	patterns := map[string]workload.Pattern{
		"bag":      workload.BagAtZero,
		"poisson":  workload.Poisson,
		"uniform":  workload.UniformSpread,
		"bursty":   workload.Bursty,
		"periodic": workload.Periodic,
	}
	pattern, ok := patterns[arrival]
	if !ok {
		return nil, fmt.Errorf("unknown arrival pattern %q", arrival)
	}
	return workload.Generate(rng, workload.Config{
		N: n, Pattern: pattern, Rate: rate, Perturb: perturb,
	}), nil
}

// ParseFloats parses a comma-separated float list.
func ParseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
