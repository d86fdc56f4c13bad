package experiment

// The scenario study: the paper's seven heuristics (plus the
// speed-oblivious extension) on platforms whose heterogeneity varies over
// time — Poisson slave churn, bounded speed drift, and flash-crowd
// join/leave waves — at two intensities on two platform classes. The
// reported quantity is degradation: each metric under the scenario
// divided by the same heuristic's static run on the identical platform
// and workload, so "how much does dynamism cost this algorithm" is read
// directly. See DESIGN.md §8.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/textplot"
	"repro/internal/workload"
)

// ScenarioKinds names the generated scenario families in presentation
// order.
var ScenarioKinds = []string{"failures", "drift", "flash-crowd"}

// ScenarioClasses are the platform classes the study sweeps by default:
// the two the paper found most separating for the static heuristics.
// ScenarioStudyOver narrows the sweep (e.g. for a -classes filter).
var ScenarioClasses = []core.Class{core.CompHomogeneous, core.Heterogeneous}

// scenarioIntensities scale event density: 1 means each slave fails about
// once per run (failures), drift spreads of ±40% (drift), and a crowd the
// size of the platform (flash-crowd).
var scenarioIntensities = []float64{0.5, 1}

// SpeedObliviousName labels the beyond-the-paper entrant in the study.
const SpeedObliviousName = "SO-LS"

// BuildScenario draws the named scenario family for a platform and
// horizon at the given intensity. Exposed so cmd/msched generates the
// exact timelines the study uses.
func BuildScenario(kind string, rng *rand.Rand, pl core.Platform, horizon, intensity float64) scenario.Scenario {
	if horizon <= 0 || math.IsInf(horizon, 0) {
		panic(fmt.Sprintf("experiment: scenario horizon %v", horizon))
	}
	if intensity <= 0 {
		// Callers (CLI flags included) must validate: silently substituting
		// a default would make an intensity sweep lie near zero.
		panic(fmt.Sprintf("experiment: non-positive scenario intensity %v", intensity))
	}
	switch kind {
	case "failures":
		return workload.FailureScenario(rng, pl.M(), horizon, intensity, 0.1*horizon)
	case "drift":
		return workload.DriftScenario(rng, pl, horizon, 4, 0.4*intensity)
	case "flash-crowd":
		joins := int(math.Round(intensity * float64(pl.M())))
		if joins < 1 {
			joins = 1
		}
		return workload.FlashCrowdScenario(rng, pl.M(), joins, 0.25*horizon, 0.75*horizon, core.GenConfig{})
	default:
		panic(fmt.Sprintf("experiment: unknown scenario kind %q (valid: %s)",
			kind, strings.Join(ScenarioKinds, ", ")))
	}
}

// ScenarioStudyResult is the dynamic-platform sweep: per group (class ×
// kind × intensity), the per-scheduler degradation summaries over
// platform replicates, plus the flat machine-readable record.
type ScenarioStudyResult struct {
	Config      Config
	Classes     []core.Class
	Kinds       []string
	Intensities []float64
	Order       []string // scheduler presentation order (paper seven + SO-LS)
	// Groups maps "class/kind/intensity=x" to value-key summaries over
	// the group's platform replicates.
	Groups map[string]map[string]stats.Summary
	Raw    runner.Result
}

// GroupKey renders the canonical group identifier used in Groups and in
// the cells' shard keys.
func GroupKey(class core.Class, kind string, intensity float64) string {
	return fmt.Sprintf("%v/%s/intensity=%.2f", class, kind, intensity)
}

// ScenarioStudy sweeps scenario kind × intensity × platform class ×
// heuristic through the deterministic runner. Each cell is one random
// platform replicate: it draws the platform and the scenario timeline
// from its own shard streams, runs every heuristic (FailSafe-wrapped)
// both statically and under the scenario, and records absolute metrics
// and degradations. The scenario horizon is the replicate's static SRPT
// makespan, so event density is calibrated to how long the work actually
// takes on that platform; all heuristics in a cell face the identical
// timeline.
func ScenarioStudy(cfg Config) ScenarioStudyResult {
	return ScenarioStudyOver(ScenarioClasses, cfg)
}

// ScenarioStudyOver is ScenarioStudy restricted to the given platform
// classes. Cell keys and seeds depend only on each cell's own
// coordinates, so a narrowed study reproduces exactly the corresponding
// cells of the default one (the runner's filter-stability contract).
func ScenarioStudyOver(classes []core.Class, cfg Config) ScenarioStudyResult {
	if len(classes) == 0 {
		panic("experiment: scenario study over no platform classes")
	}
	cfg = cfg.withDefaults()
	names := cfg.Schedulers
	order := append(append([]string(nil), names...), SpeedObliviousName)

	type coord struct {
		class     core.Class
		kind      string
		intensity float64
		platform  int
	}
	var grid []coord
	for _, class := range classes {
		for _, kind := range ScenarioKinds {
			for _, intensity := range scenarioIntensities {
				for p := 0; p < cfg.Platforms; p++ {
					grid = append(grid, coord{class, kind, intensity, p})
				}
			}
		}
	}

	cells, err := runner.Map(cfg.Workers, len(grid), func(i int) (runner.Cell, error) {
		g := grid[i]
		key := fmt.Sprintf("scenario/%s/platform=%03d", GroupKey(g.class, g.kind, g.intensity), g.platform)
		cell := runner.NewCell(cfg.Seed, key)
		cell.Labels = map[string]string{
			"class":     g.class.String(),
			"kind":      g.kind,
			"intensity": fmt.Sprintf("%.2f", g.intensity),
		}
		pl := core.Random(runner.RNG(cfg.Seed, key+"/platform"), g.class, core.GenConfig{M: cfg.M})
		tasks := core.Bag(cfg.Tasks)

		srpt, err := sim.Simulate(pl, schedulerFor("SRPT", cfg.Tasks), tasks)
		if err != nil {
			return cell, fmt.Errorf("%s: static SRPT on %v: %w", key, pl, err)
		}
		sc := BuildScenario(g.kind, runner.RNG(cfg.Seed, key+"/scenario"), pl, srpt.Makespan(), g.intensity)
		cell.Labels["scenario"] = sc.Name

		for _, name := range order {
			static := srpt
			if name != "SRPT" {
				if static, err = sim.Simulate(pl, schedulerFor(name, cfg.Tasks), tasks); err != nil {
					return cell, fmt.Errorf("%s: static %s on %v: %w", key, name, pl, err)
				}
			}
			dyn, err := scenario.Run(pl, sched.FailSafe(schedulerFor(name, cfg.Tasks)), tasks, sc)
			if err != nil {
				return cell, fmt.Errorf("%s: %s under %s on %v: %w", key, name, sc.Name, pl, err)
			}
			for _, obj := range core.Objectives {
				cell.Values[name+"/"+obj.String()] = obj.Value(dyn.Schedule)
				cell.Values[name+"/"+obj.String()+"-degradation"] = obj.Value(dyn.Schedule) / obj.Value(static)
			}
			cell.Values[name+"/lost"] = float64(dyn.Lost)
		}
		return cell, nil
	})
	if err != nil {
		panic(fmt.Sprintf("experiment: scenario study: %v", err))
	}

	raw := runner.Result{
		Experiment: "scenario-study",
		Params:     cfg.params(),
		RootSeed:   cfg.Seed,
		Cells:      cells,
	}
	raw.Summarize()

	groups := groupSummaries(cells, func(c runner.Cell) string {
		return strings.TrimPrefix(c.Key[:strings.LastIndex(c.Key, "/platform=")], "scenario/")
	})

	return ScenarioStudyResult{
		Config:      cfg.canonical(),
		Classes:     append([]core.Class(nil), classes...),
		Kinds:       append([]string(nil), ScenarioKinds...),
		Intensities: append([]float64(nil), scenarioIntensities...),
		Order:       order,
		Groups:      groups,
		Raw:         raw,
	}
}

// Render formats one makespan-degradation table per scenario kind:
// rows are schedulers, columns the class × intensity groups, values the
// mean ratio of the scenario run to the same heuristic's static run
// (1 = dynamism was free).
func (r ScenarioStudyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario study — makespan degradation vs the static run (n=%d tasks, %d platforms of %d slaves)\n",
		r.Config.Tasks, r.Config.Platforms, r.Config.M)
	for _, kind := range r.Kinds {
		fmt.Fprintf(&b, "\n%s:\n", kind)
		headers := []string{"algorithm"}
		var groups []string
		for _, class := range r.Classes {
			for _, intensity := range r.Intensities {
				headers = append(headers, fmt.Sprintf("%v ×%.1f", class, intensity))
				groups = append(groups, GroupKey(class, kind, intensity))
			}
		}
		var rows [][]string
		for _, name := range r.Order {
			row := []string{name}
			for _, g := range groups {
				s := r.Groups[g][name+"/makespan-degradation"]
				row = append(row, fmt.Sprintf("%.3f ± %.3f", s.Mean, s.Std))
			}
			rows = append(rows, row)
		}
		b.WriteString(textplot.Table(headers, rows))
	}
	return b.String()
}
