// Command paperbench regenerates the paper's evaluation artifacts at full
// scale: Table 1 (exact bounds, adversary confirmation, exact proof
// verification), the four panels of Figure 1, the Figure 2 robustness
// study, the dynamic-platform scenario study, and the ablation studies
// from DESIGN.md.
//
// Sweeps run on the deterministic worker pool in internal/runner: results
// are bit-identical for every -parallel value (only the "meta" stanza of
// the JSON report — workers and wall time — records how the run executed).
//
// Usage:
//
//	paperbench                          # everything at paper scale
//	paperbench -experiment fig1b        # one artifact
//	paperbench -experiment scenario     # the dynamic-platform study
//	paperbench -platforms 4 -tasks 200  # reduced scale
//	paperbench -parallel 8 -json out.json
//	paperbench -classes heterogeneous,comp-homogeneous -schedulers LS,SLJFWC
//
// Performance is measured by the repository benchmark (bash bench/run.sh),
// not by this command.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/runner"
	"repro/internal/sched"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2) // the FlagSet has reported it, with the usage
	default:
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

var errUsage = errors.New("usage") // a flag error the FlagSet has reported

// run is the command: flags from args, the rendered artifacts to
// stdout, usage and the -json note to stderr; every failure is returned.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	which := fs.String("experiment", "all",
		"artifact: table1, fig1a, fig1b, fig1c, fig1d, fig2, scenario, sharding, steal, ablation-rr, ablation-horizon, ablation-arrivals, ablation-model, randomized, all")
	platforms := fs.Int("platforms", 10, "random platforms per figure (paper: 10)")
	tasks := fs.Int("tasks", 1000, "tasks per run (paper: 1000)")
	m := fs.Int("m", 5, "slaves per platform (paper: 5)")
	seed := fs.Int64("seed", 2006, "random seed")
	parallel := fs.Int("parallel", 0, "worker-pool size; 0 = GOMAXPROCS (results are identical for every value)")
	jsonOut := fs.String("json", "", "write a machine-readable report of every artifact to this file")
	classesFlag := fs.String("classes", "", "comma-separated platform-class filter for the class-parameterized artifacts (default: all four)")
	schedulersFlag := fs.String("schedulers", "", "comma-separated scheduler filter for the figure sweeps (default: the full registry)")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	classes, err := parseClasses(*classesFlag)
	if err != nil {
		return err
	}
	if err := validateSchedulers(splitList(*schedulersFlag)); err != nil {
		return err
	}
	cfg := experiment.Config{
		Platforms:  *platforms,
		Tasks:      *tasks,
		M:          *m,
		Seed:       *seed,
		Workers:    *parallel,
		Schedulers: splitList(*schedulersFlag),
	}

	type artifact struct {
		name string
		// class gates class-parameterized artifacts on the -classes filter;
		// nil means the artifact always runs.
		class *core.Class
		run   func() []runner.Result
	}
	fig1 := func(class core.Class) func() []runner.Result {
		return func() []runner.Result {
			r := experiment.Figure1(class, cfg)
			fmt.Fprintln(stdout, r.Render())
			return []runner.Result{r.Raw}
		}
	}
	classPtr := func(c core.Class) *core.Class { return &c }
	// selectClasses applies the -classes filter to an artifact's class
	// pool, and says so when that leaves the artifact nothing to run.
	selectClasses := func(pool []core.Class) []core.Class {
		var selected []core.Class
		for _, class := range pool {
			if classes[class] {
				selected = append(selected, class)
			}
		}
		if len(selected) == 0 {
			fmt.Fprintln(stdout, "(skipped: every platform class of this artifact is excluded by -classes)")
		}
		return selected
	}
	artifacts := []artifact{
		{"table1", nil, func() []runner.Result {
			rows := experiment.Table1Parallel(*parallel)
			fmt.Fprintln(stdout, experiment.RenderTable1(rows))
			return []runner.Result{experiment.Table1Result(rows)}
		}},
		{"fig1a", classPtr(core.Homogeneous), fig1(core.Homogeneous)},
		{"fig1b", classPtr(core.CommHomogeneous), fig1(core.CommHomogeneous)},
		{"fig1c", classPtr(core.CompHomogeneous), fig1(core.CompHomogeneous)},
		{"fig1d", classPtr(core.Heterogeneous), fig1(core.Heterogeneous)},
		{"fig2", nil, func() []runner.Result {
			r := experiment.Figure2(cfg)
			fmt.Fprintln(stdout, r.Render())
			return []runner.Result{r.Raw}
		}},
		{"scenario", nil, func() []runner.Result {
			selected := selectClasses(experiment.ScenarioClasses)
			if len(selected) == 0 {
				return nil
			}
			r := experiment.ScenarioStudyOver(selected, cfg)
			fmt.Fprintln(stdout, r.Render())
			return []runner.Result{r.Raw}
		}},
		{"sharding", nil, func() []runner.Result {
			selected := selectClasses(core.Classes)
			if len(selected) == 0 {
				return nil
			}
			r := experiment.ShardingStudyOver(selected, cfg)
			fmt.Fprintln(stdout, r.Render())
			return []runner.Result{r.Raw}
		}},
		{"steal", nil, func() []runner.Result {
			selected := selectClasses(core.Classes)
			if len(selected) == 0 {
				return nil
			}
			r := experiment.StealStudyOver(selected, cfg)
			fmt.Fprintln(stdout, r.Render())
			return []runner.Result{r.Raw}
		}},
		{"ablation-rr", nil, func() []runner.Result {
			var out []runner.Result
			for _, class := range selectClasses([]core.Class{core.Homogeneous, core.CommHomogeneous}) {
				r := experiment.AblationRRCap(class, cfg)
				fmt.Fprintln(stdout, r.Render())
				out = append(out, r.Raw)
			}
			return out
		}},
		{"ablation-horizon", nil, func() []runner.Result {
			r := experiment.AblationPlanHorizon(cfg)
			fmt.Fprintln(stdout, r.Render())
			return []runner.Result{r.Raw}
		}},
		{"ablation-arrivals", nil, func() []runner.Result {
			var out []runner.Result
			for _, load := range []float64{0.5, 0.8, 0.95} {
				r := experiment.AblationArrivals(load, cfg)
				fmt.Fprintln(stdout, r.Render())
				out = append(out, r.Raw)
			}
			return out
		}},
		{"ablation-model", nil, func() []runner.Result {
			var out []runner.Result
			for _, class := range selectClasses([]core.Class{core.CompHomogeneous, core.Heterogeneous}) {
				r := experiment.AblationModel(class, cfg)
				fmt.Fprintln(stdout, r.Render())
				out = append(out, r.Raw)
			}
			return out
		}},
		{"randomized", nil, func() []runner.Result {
			r := experiment.RandomizedStudyParallel(1000, 0.3, *parallel)
			fmt.Fprintln(stdout, r.Render())
			return []runner.Result{r.Raw}
		}},
	}

	var names []string
	byName := map[string]artifact{}
	for _, a := range artifacts {
		names = append(names, a.name)
		byName[a.name] = a
	}

	var selected []artifact
	if *which == "all" {
		for _, a := range artifacts {
			if a.class != nil && !classes[*a.class] {
				continue
			}
			selected = append(selected, a)
		}
	} else {
		a, ok := byName[*which]
		if !ok {
			return fmt.Errorf("unknown experiment %q; choose one of %s or all",
				*which, strings.Join(names, ", "))
		}
		if a.class != nil && !classes[*a.class] {
			return fmt.Errorf("-experiment %s is the %v panel, which -classes excludes", *which, *a.class)
		}
		selected = append(selected, a)
	}

	report := runner.Report{RootSeed: *seed}
	start := time.Now()
	for _, a := range selected {
		if *which == "all" {
			fmt.Fprintf(stdout, "==== %s ====\n", a.name)
		}
		t0 := time.Now()
		results := a.run()
		wall := time.Since(t0).Seconds()
		for i := range results {
			results[i].Meta = &runner.Meta{Workers: runner.Workers(*parallel), WallSeconds: wall / float64(len(results))}
		}
		report.Results = append(report.Results, results...)
	}
	report.Meta = &runner.Meta{Workers: runner.Workers(*parallel), WallSeconds: time.Since(start).Seconds()}

	if *jsonOut != "" {
		if err := runner.WriteJSON(*jsonOut, report); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "paperbench: wrote %d result(s) to %s (workers=%d, wall=%.2fs; everything outside \"meta\" is worker-count independent)\n",
			len(report.Results), *jsonOut, report.Meta.Workers, report.Meta.WallSeconds)
	}
	return nil
}

// validateSchedulers rejects unknown names up front, so a typo yields a
// CLI error instead of a panic out of the experiment harness.
func validateSchedulers(names []string) error {
	for _, n := range names {
		if err := sched.Validate(n); err != nil {
			return err
		}
	}
	return nil
}

// parseClasses turns "heterogeneous,comp-homogeneous" into a member set;
// empty input selects all four classes.
func parseClasses(s string) (map[core.Class]bool, error) {
	set := map[core.Class]bool{}
	if strings.TrimSpace(s) == "" {
		for _, c := range core.Classes {
			set[c] = true
		}
		return set, nil
	}
	for _, name := range splitList(s) {
		c, err := core.ParseClass(name)
		if err != nil {
			return nil, err
		}
		set[c] = true
	}
	return set, nil
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
