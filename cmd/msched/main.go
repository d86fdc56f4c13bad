// Command msched runs one scheduling scenario on the one-port
// master-slave simulator and prints its metrics, optionally with an ASCII
// Gantt chart and the exact offline optimum.
//
// With -repeat R it becomes a replicate sweep on the deterministic runner:
// R independently seeded replicates of the scenario run across -parallel
// workers (replicate r redraws the platform and workload from
// hash(seed, "msched/replicate=r"); results are identical for every
// worker count) and the per-replicate metrics are summarized, optionally
// as machine-readable JSON via -json.
//
// Usage examples:
//
//	msched -algo LS -class heterogeneous -m 5 -n 100 -seed 7 -gantt
//	msched -algo SLJF -c 1,1 -p 3,7 -releases 0,1,2 -opt
//	msched -algo RRC -class comp-homogeneous -n 500 -arrival poisson -rate 2
//	msched -algo LS -class heterogeneous -n 200 -repeat 64 -parallel 8 -json out.json
//
// With -scenario the platform becomes dynamic: a generated event timeline
// (slave failures, speed drift, or a flash crowd — seeded like everything
// else) runs against the fail-safe-wrapped algorithm, destroyed work is
// re-dispatched, and the metrics are failure-time objectives:
//
//	msched -algo LS -class heterogeneous -n 200 -scenario failures -intensity 1.5
//	msched -algo SRPT -class comp-homogeneous -n 200 -scenario drift -repeat 32 -json out.json
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/optimal"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/textplot"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("msched: ")

	algo := flag.String("algo", "LS", "algorithm: "+strings.Join(sched.ExtendedNames(), ", "))
	class := flag.String("class", "heterogeneous", "random platform class: homogeneous, comm-homogeneous, comp-homogeneous, heterogeneous")
	m := flag.Int("m", 5, "number of slaves for random platforms")
	seed := flag.Int64("seed", 1, "random seed")
	n := flag.Int("n", 20, "number of tasks")
	cFlag := flag.String("c", "", "explicit communication times, e.g. 1,1 (overrides -class)")
	pFlag := flag.String("p", "", "explicit computation times, e.g. 3,7")
	releases := flag.String("releases", "", "explicit release times, e.g. 0,1,2 (overrides -n/-arrival)")
	arrival := flag.String("arrival", "bag", "arrival pattern: bag, poisson, uniform, bursty, periodic")
	rate := flag.Float64("rate", 1, "arrival rate for poisson/periodic")
	perturb := flag.Float64("perturb", 0, "matrix-size perturbation fraction (Figure 2 style)")
	gantt := flag.Bool("gantt", false, "print an ASCII Gantt chart")
	stat := flag.Bool("stats", false, "print utilization and queueing analysis")
	opt := flag.Bool("opt", false, "also compute the exact offline optimum (small instances only)")
	repeat := flag.Int("repeat", 1, "number of independently seeded replicates (>1 switches to the sweep mode)")
	parallel := flag.Int("parallel", 0, "worker-pool size for -repeat; 0 = GOMAXPROCS (results are identical for every value)")
	jsonOut := flag.String("json", "", "write the machine-readable record (single run: trace report; -repeat: replicate sweep) to this file")
	scenarioKind := flag.String("scenario", "", "dynamic-platform scenario: "+strings.Join(experiment.ScenarioKinds, ", ")+" (empty = static platform)")
	intensity := flag.Float64("intensity", 1, "scenario event density (1 ≈ one failure per slave / ±40% drift / platform-sized crowd)")
	flag.Parse()

	if err := sched.Validate(*algo); err != nil {
		log.Fatal(err)
	}
	if err := validateScenarioKind(*scenarioKind); err != nil {
		log.Fatal(err)
	}
	if *scenarioKind != "" {
		if *gantt || *stat || *opt {
			log.Fatal("-gantt, -stats and -opt describe a static run; drop them or drop -scenario")
		}
		if *intensity <= 0 {
			log.Fatalf("-intensity %v must be positive", *intensity)
		}
		if *releases == "" && *n <= 0 {
			log.Fatal("-scenario needs a non-empty workload")
		}
		if *jsonOut != "" && *repeat <= 1 {
			log.Fatal("-json for scenarios is the replicate record; add -repeat")
		}
	}
	if *repeat > 1 {
		if *gantt || *stat || *opt {
			log.Fatal("-gantt, -stats and -opt describe a single run; drop them or drop -repeat")
		}
		if err := runReplicates(*repeat, *parallel, *jsonOut, *algo, *cFlag, *pFlag, *class,
			*m, *seed, *releases, *n, *arrival, *rate, *perturb, *scenarioKind, *intensity); err != nil {
			log.Fatal(err)
		}
		return
	}

	rng := rand.New(rand.NewSource(*seed))
	pl, err := experiment.BuildPlatform(*cFlag, *pFlag, *class, *m, rng)
	if err != nil {
		log.Fatal(err)
	}
	tasks, err := experiment.BuildTasks(*releases, *n, *arrival, *rate, *perturb, rng)
	if err != nil {
		log.Fatal(err)
	}

	if *scenarioKind != "" {
		if err := runScenario(*scenarioKind, *intensity, *algo, *seed, *arrival, pl, tasks); err != nil {
			log.Fatal(err)
		}
		return
	}

	scheduler := sched.New(*algo)
	s, err := sim.Simulate(pl, scheduler, tasks)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("platform: %v (%v)\n", pl, pl.Classify())
	fmt.Printf("workload: %d tasks, %s arrivals\n", len(tasks), *arrival)
	fmt.Printf("algorithm: %s\n\n", scheduler.Name())
	fmt.Printf("makespan: %.4f\n", s.Makespan())
	fmt.Printf("max-flow: %.4f\n", s.MaxFlow())
	fmt.Printf("sum-flow: %.4f\n", s.SumFlow())

	if *opt {
		inst := core.NewInstance(pl, tasks)
		fmt.Println()
		for _, obj := range core.Objectives {
			res := optimal.Solve(inst, obj)
			fmt.Printf("offline optimal %-8v: %.4f (ratio %.4f)\n",
				obj, res.Value, obj.Value(s)/res.Value)
		}
	}
	if *stat {
		fmt.Println()
		fmt.Print(trace.Analyze(s).Render())
	}
	if *gantt {
		fmt.Println()
		fmt.Print(textplot.Gantt(s, 100))
	}
	if *jsonOut != "" {
		// The single-run record embeds the trace.Report wire encoding —
		// the same one schedd's GET /v1/stats serves.
		report := trace.Analyze(s)
		rec := singleRunRecord{
			Algorithm: scheduler.Name(),
			Platform:  map[string]any{"c": pl.C, "p": pl.P, "class": pl.Classify().String()},
			Tasks:     len(tasks),
			Arrival:   *arrival,
			Seed:      *seed,
			Trace:     &report,
		}
		if err := runner.WriteJSON(*jsonOut, rec); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote the run record to %s\n", *jsonOut)
	}
}

// singleRunRecord is the machine-readable single-run output of msched:
// instance parameters plus the shared trace.Report encoding.
type singleRunRecord struct {
	Algorithm string         `json:"algorithm"`
	Platform  map[string]any `json:"platform"`
	Tasks     int            `json:"tasks"`
	Arrival   string         `json:"arrival"`
	Seed      int64          `json:"seed"`
	Trace     *trace.Report  `json:"trace"`
}

// validateScenarioKind rejects unknown -scenario values up front.
func validateScenarioKind(kind string) error {
	if kind == "" {
		return nil
	}
	for _, k := range experiment.ScenarioKinds {
		if k == kind {
			return nil
		}
	}
	return fmt.Errorf("unknown scenario %q; valid: %s", kind, strings.Join(experiment.ScenarioKinds, ", "))
}

// runScenario is the single-run -scenario path: one generated timeline,
// the fail-safe-wrapped algorithm, failure-time metrics and the
// degradation against the static baseline.
func runScenario(kind string, intensity float64, algo string, seed int64, arrival string,
	pl core.Platform, tasks []core.Task) error {
	sc, static, err := experiment.GenerateScenario(kind, intensity, algo, runner.RNG(seed, "msched/scenario"), pl, tasks)
	if err != nil {
		return err
	}
	out, err := scenario.Run(pl, sched.FailSafe(sched.New(algo)), tasks, sc)
	if err != nil {
		return err
	}
	kinds := make([]string, 0, 4)
	for _, k := range sc.Kinds() {
		kinds = append(kinds, k.String())
	}
	fmt.Printf("platform: %v (%v)\n", pl, pl.Classify())
	fmt.Printf("workload: %d tasks, %s arrivals\n", len(tasks), arrival)
	fmt.Printf("scenario: %s — %d events (%s), final m=%d\n",
		sc.Name, out.EventsApplied, strings.Join(kinds, ", "), out.FinalM)
	fmt.Printf("algorithm: %s (fail-safe wrapped)\n\n", algo)
	fmt.Printf("makespan: %.4f (static %.4f, degradation %.3f)\n",
		out.Schedule.Makespan(), static.Makespan(), out.Schedule.Makespan()/static.Makespan())
	fmt.Printf("max-flow: %.4f (static %.4f)\n", out.Schedule.MaxFlow(), static.MaxFlow())
	fmt.Printf("sum-flow: %.4f (static %.4f)\n", out.Schedule.SumFlow(), static.SumFlow())
	fmt.Printf("re-dispatch: %d attempts lost to failures, %d re-released\n", out.Lost, out.Redispatched)
	return nil
}

// runReplicates is the -repeat path: a thin shell over
// experiment.Replicates (the sweep itself lives in the library so the
// differential engine suite can reproduce this command's JSON record
// byte for byte).
func runReplicates(repeat, parallel int, jsonOut, algo, cFlag, pFlag, class string,
	m int, seed int64, releases string, n int, arrival string, rate, perturb float64,
	scenarioKind string, intensity float64) error {
	res, err := experiment.Replicates(repeat, parallel, experiment.ReplicateOptions{
		Algo: algo, CFlag: cFlag, PFlag: pFlag, Class: class, M: m, Seed: seed,
		ReleasesFlag: releases, N: n, Arrival: arrival, Rate: rate, Perturb: perturb,
		Scenario: scenarioKind, Intensity: intensity,
	})
	if err != nil {
		return err
	}

	platformDesc := class + " platforms"
	if cFlag != "" {
		platformDesc = "fixed platform c=[" + cFlag + "] p=[" + pFlag + "]"
	}
	fmt.Printf("algorithm: %s\n", algo)
	fmt.Printf("replicates: %d (%s, %s arrivals)\n", repeat, platformDesc, arrival)
	if scenarioKind != "" {
		fmt.Printf("scenario: %s at intensity %g (fail-safe wrapped)\n", scenarioKind, intensity)
	}
	fmt.Println()
	metrics := []string{"makespan", "max-flow", "sum-flow"}
	if scenarioKind != "" {
		metrics = append(metrics, "makespan-degradation", "lost")
	}
	for _, metric := range metrics {
		printSummary(metric, res.Summaries[metric])
	}
	if jsonOut != "" {
		if err := runner.WriteJSON(jsonOut, res); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d replicate cells to %s\n", repeat, jsonOut)
	}
	return nil
}

func printSummary(name string, s stats.Summary) {
	fmt.Printf("%-9s %s (median %.4f)\n", name+":", s, s.Median)
}
