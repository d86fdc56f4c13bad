// Package experiment regenerates the paper's evaluation artifacts:
// Table 1 (the nine lower bounds, exact and as measured adversary games),
// Figure 1 (the seven heuristics on the four platform classes, normalized
// to SRPT), Figure 2 (robustness under matrix-size perturbation), and the
// ablation studies DESIGN.md calls out.
//
// Every sweep runs on internal/runner's deterministic worker pool: each
// (experiment × platform-replicate) cell derives its randomness from
// runner.Seed(rootSeed, shardKey), so results are bit-identical whether
// computed by one goroutine or GOMAXPROCS of them, and every result
// carries a machine-readable runner.Result record (see DESIGN.md §5).
package experiment

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/textplot"
	"repro/internal/workload"
)

// Config sets the scale of the Figure-1/Figure-2 experiments. The zero
// value selects the paper's parameters: ten random platforms of five
// machines and one thousand tasks.
type Config struct {
	Platforms int
	Tasks     int
	M         int
	Seed      int64
	// Workers caps the runner's worker pool; ≤ 0 selects GOMAXPROCS. It is
	// an execution knob, not part of the experiment's identity: every value
	// yields bit-identical results, so stored configs normalize it to 0.
	Workers int
	// Schedulers restricts which heuristics are simulated and reported;
	// empty selects the full paper registry (sched.Names()). Cell seeds
	// depend only on (Seed, cell key), never on this list, so a filtered
	// sweep reproduces exactly the corresponding cells of the full sweep.
	// SRPT is always simulated as the normalization baseline even when it
	// is filtered out of the report.
	Schedulers []string
}

// schedulerFor instantiates a heuristic for a workload of n tasks: the
// SLJF planners are given the true task count, matching the paper's
// setup where the off-line-born algorithms know the total number of
// tasks ("as soon as it knows the total number of tasks").
func schedulerFor(name string, n int) sim.Scheduler {
	switch name {
	case "SLJF":
		return sched.NewSLJF(n)
	case "SLJFWC":
		return sched.NewSLJFWC(n)
	default:
		return sched.New(name)
	}
}

func (c Config) withDefaults() Config {
	if c.Platforms <= 0 {
		c.Platforms = 10
	}
	if c.Tasks <= 0 {
		c.Tasks = 1000
	}
	if c.M <= 0 {
		c.M = 5
	}
	if len(c.Schedulers) == 0 {
		c.Schedulers = sched.Names()
	} else {
		c.Schedulers = append([]string(nil), c.Schedulers...)
		for _, n := range c.Schedulers {
			if err := sched.Validate(n); err != nil {
				panic("experiment: " + err.Error())
			}
		}
	}
	return c
}

// canonical strips the execution knob so stored results are comparable
// across worker counts.
func (c Config) canonical() Config {
	c.Workers = 0
	return c
}

// params renders the config for the machine-readable record.
func (c Config) params() map[string]any {
	return map[string]any{
		"platforms":  c.Platforms,
		"tasks":      c.Tasks,
		"m":          c.M,
		"schedulers": strings.Join(c.Schedulers, ","),
	}
}

// summariesByScheduler regroups a runner.Result's flat "name/objective"
// summaries into the presentation maps the render paths consume.
func summariesByScheduler(raw *runner.Result, names []string) map[string]map[core.Objective]stats.Summary {
	out := make(map[string]map[core.Objective]stats.Summary, len(names))
	for _, n := range names {
		out[n] = map[core.Objective]stats.Summary{}
		for _, obj := range core.Objectives {
			out[n][obj] = raw.Summaries[n+"/"+obj.String()]
		}
	}
	return out
}

// groupSummaries regroups a study's cells by groupOf and summarizes every
// value key over each group's platform replicates — the per-group tables
// the scenario, sharding and steal studies render from.
func groupSummaries(cells []runner.Cell, groupOf func(runner.Cell) string) map[string]map[string]stats.Summary {
	acc := map[string]map[string][]float64{}
	for _, c := range cells {
		group := groupOf(c)
		if acc[group] == nil {
			acc[group] = map[string][]float64{}
		}
		for k, v := range c.Values {
			acc[group][k] = append(acc[group][k], v)
		}
	}
	groups := make(map[string]map[string]stats.Summary, len(acc))
	for group, byKey := range acc {
		groups[group] = make(map[string]stats.Summary, len(byKey))
		keys := make([]string, 0, len(byKey))
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Strings(keys) // deterministic summarize order
		for _, k := range keys {
			groups[group][k] = stats.Summarize(byKey[k])
		}
	}
	return groups
}

// mergeShardObjectives folds one shard's schedule into the cluster-level
// objectives: sum-flow adds up, makespan and max-flow are maxima.
func mergeShardObjectives(merged map[core.Objective]float64, sub core.Schedule) {
	for _, obj := range core.Objectives {
		val := obj.Value(sub)
		if obj == core.SumFlow {
			merged[obj] += val
		} else if val > merged[obj] {
			merged[obj] = val
		}
	}
}

// Cell is one scheduler × objective aggregate.
type Cell struct {
	Scheduler string
	Objective core.Objective
	// Normalized is the mean over platforms of metric(alg)/metric(SRPT),
	// the paper's normalization.
	Normalized stats.Summary
}

// Figure1Result is one panel of Figure 1.
type Figure1Result struct {
	Class  core.Class
	Config Config
	Cells  map[string]map[core.Objective]stats.Summary
	Order  []string // scheduler presentation order
	// Raw is the machine-readable per-cell record (one cell per random
	// platform, values keyed "scheduler/objective").
	Raw runner.Result
}

// Figure1 reproduces one panel of Figure 1: draw Config.Platforms random
// platforms of the class, run the seven heuristics on a bag of
// Config.Tasks identical tasks, and normalize each metric to SRPT's.
// Platform replicates are independent shards: replicate p draws its
// platform from seed hash(Seed, "fig1/<class>/platform=p/platform"), so
// the sweep parallelizes without changing a single draw.
func Figure1(class core.Class, cfg Config) Figure1Result {
	cfg = cfg.withDefaults()
	names := cfg.Schedulers
	cells, err := runner.Map(cfg.Workers, cfg.Platforms, func(p int) (runner.Cell, error) {
		key := fmt.Sprintf("fig1/%v/platform=%03d", class, p)
		cell := runner.NewCellSized(cfg.Seed, key, len(names)*len(core.Objectives))
		pl := core.Random(runner.RNG(cfg.Seed, key+"/platform"), class, core.GenConfig{M: cfg.M})
		tasks := core.Bag(cfg.Tasks)
		srpt, err := sim.Simulate(pl, schedulerFor("SRPT", cfg.Tasks), tasks)
		if err != nil {
			return cell, fmt.Errorf("%s: SRPT on %v: %w", key, pl, err)
		}
		base := map[core.Objective]float64{}
		for _, obj := range core.Objectives {
			base[obj] = obj.Value(srpt)
		}
		for _, name := range names {
			s := srpt
			if name != "SRPT" {
				if s, err = sim.Simulate(pl, schedulerFor(name, cfg.Tasks), tasks); err != nil {
					return cell, fmt.Errorf("%s: %s on %v: %w", key, name, pl, err)
				}
			}
			for _, obj := range core.Objectives {
				cell.Values[name+"/"+obj.String()] = obj.Value(s) / base[obj]
			}
		}
		return cell, nil
	})
	if err != nil {
		panic(fmt.Sprintf("experiment: figure 1 %v: %v", class, err))
	}
	raw := runner.Result{
		Experiment: "fig1/" + class.String(),
		Params:     cfg.params(),
		RootSeed:   cfg.Seed,
		Cells:      cells,
	}
	raw.Summarize()
	return Figure1Result{
		Class:  class,
		Config: cfg.canonical(),
		Order:  names,
		Cells:  summariesByScheduler(&raw, names),
		Raw:    raw,
	}
}

// Render formats the panel as a table plus a makespan bar chart, in the
// paper's normalized units (SRPT = 1).
func (r Figure1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 panel — %v platforms (n=%d tasks, %d platforms of %d slaves)\n",
		r.Class, r.Config.Tasks, r.Config.Platforms, r.Config.M)
	headers := []string{"algorithm", "makespan", "max-flow", "sum-flow"}
	var rows [][]string
	for _, n := range r.Order {
		rows = append(rows, []string{
			n,
			fmt.Sprintf("%.3f ± %.3f", r.Cells[n][core.Makespan].Mean, r.Cells[n][core.Makespan].Std),
			fmt.Sprintf("%.3f ± %.3f", r.Cells[n][core.MaxFlow].Mean, r.Cells[n][core.MaxFlow].Std),
			fmt.Sprintf("%.3f ± %.3f", r.Cells[n][core.SumFlow].Mean, r.Cells[n][core.SumFlow].Std),
		})
	}
	b.WriteString(textplot.Table(headers, rows))
	b.WriteString("\nnormalized makespan (SRPT = 1):\n")
	values := make([]float64, len(r.Order))
	for i, n := range r.Order {
		values[i] = r.Cells[n][core.Makespan].Mean
	}
	b.WriteString(textplot.Bars(r.Order, values, 40))
	return b.String()
}

// Figure2Result is the robustness experiment: mean ratio of each metric
// under size perturbation to the identical-size run on the same platform.
type Figure2Result struct {
	Config  Config
	Perturb float64
	Cells   map[string]map[core.Objective]stats.Summary
	Order   []string
	Raw     runner.Result
}

// Figure2 reproduces the robustness experiment: fully heterogeneous
// platforms, per-task matrix-size perturbation of up to ±10% (volume ∝ s²
// for communication, flops ∝ s³ for computation), schedulers planning
// with nominal costs. Reported is perturbed ÷ unperturbed per metric.
//
// Tasks trickle in as a Poisson stream at roughly 90% of the mean
// platform's service capacity: with the bag-at-zero workload the
// perturbations average out and every algorithm looks robust, whereas
// under queueing dynamics planning errors compound — which is where the
// paper's "robust for makespan, not as much for sum-flow or max-flow"
// contrast lives.
//
// Each platform replicate derives two independent streams — the platform
// draw and the workload draw — from its shard key, so filtering
// schedulers or changing the worker count never perturbs an instance.
func Figure2(cfg Config) Figure2Result {
	cfg = cfg.withDefaults()
	const perturb = 0.1
	names := cfg.Schedulers
	gen := core.DefaultGenConfig()
	rate := 0.9 * float64(cfg.M) / ((gen.PMin + gen.PMax) / 2)
	cells, err := runner.Map(cfg.Workers, cfg.Platforms, func(p int) (runner.Cell, error) {
		key := fmt.Sprintf("fig2/platform=%03d", p)
		cell := runner.NewCellSized(cfg.Seed, key, len(names)*len(core.Objectives))
		pl := core.Random(runner.RNG(cfg.Seed, key+"/platform"), core.Heterogeneous, core.GenConfig{M: cfg.M})
		perturbed := workload.Generate(runner.RNG(cfg.Seed, key+"/workload"), workload.Config{
			N: cfg.Tasks, Pattern: workload.Poisson, Rate: rate, Perturb: perturb,
		})
		nominal := workload.Strip(perturbed)
		for _, name := range names {
			ps, err := sim.Simulate(pl, schedulerFor(name, cfg.Tasks), perturbed)
			if err != nil {
				return cell, fmt.Errorf("%s: %s perturbed: %w", key, name, err)
			}
			ns, err := sim.Simulate(pl, schedulerFor(name, cfg.Tasks), nominal)
			if err != nil {
				return cell, fmt.Errorf("%s: %s nominal: %w", key, name, err)
			}
			for _, obj := range core.Objectives {
				cell.Values[name+"/"+obj.String()] = obj.Value(ps) / obj.Value(ns)
			}
		}
		return cell, nil
	})
	if err != nil {
		panic(fmt.Sprintf("experiment: figure 2: %v", err))
	}
	raw := runner.Result{
		Experiment: "fig2",
		Params:     cfg.params(),
		RootSeed:   cfg.Seed,
		Cells:      cells,
	}
	raw.Summarize()
	return Figure2Result{
		Config:  cfg.canonical(),
		Perturb: perturb,
		Order:   names,
		Cells:   summariesByScheduler(&raw, names),
		Raw:     raw,
	}
}

// Render formats the robustness table.
func (r Figure2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 — robustness to ±%.0f%% matrix-size perturbation (ratio to identical-size run)\n",
		r.Perturb*100)
	headers := []string{"algorithm", "makespan", "max-flow", "sum-flow"}
	var rows [][]string
	for _, n := range r.Order {
		rows = append(rows, []string{
			n,
			fmt.Sprintf("%.3f ± %.3f", r.Cells[n][core.Makespan].Mean, r.Cells[n][core.Makespan].Std),
			fmt.Sprintf("%.3f ± %.3f", r.Cells[n][core.MaxFlow].Mean, r.Cells[n][core.MaxFlow].Std),
			fmt.Sprintf("%.3f ± %.3f", r.Cells[n][core.SumFlow].Mean, r.Cells[n][core.SumFlow].Std),
		})
	}
	b.WriteString(textplot.Table(headers, rows))
	return b.String()
}

// Table1Row is one theorem: the exact bound and the worst (smallest)
// measured ratio over the scheduler registry.
type Table1Row struct {
	Theorem      int
	PlatformType string
	Objective    core.Objective
	BoundExpr    string
	Bound        float64
	Slack        float64
	MinRatio     float64
	MinScheduler string
	Confirmed    bool // MinRatio ≥ Bound − Slack
}

// Table1 regenerates the paper's Table 1 with a GOMAXPROCS-wide pool; see
// Table1Parallel.
func Table1() []Table1Row { return Table1Parallel(0) }

// Table1Parallel regenerates the paper's Table 1: the exact bounds
// (verified in internal/lowerbound) and, for each theorem, the worst
// competitive ratio measured by playing the adversary against every
// registered scheduler — which must confirm the bound. Each theorem is
// one shard; adversary games are deterministic (no randomness), so the
// rows are identical for every worker count.
func Table1Parallel(workers int) []Table1Row {
	n := len(adversary.All())
	rows, err := runner.Map(workers, n, func(i int) (Table1Row, error) {
		// Fresh adversary and scheduler instances per cell: both are
		// stateful during play and must not be shared across goroutines.
		adv := adversary.All()[i]
		schedulers := sched.Adversarial(adv.Platform().M())
		minRatio := 0.0
		minName := ""
		for _, s := range schedulers {
			out, err := adversary.Play(adv, s)
			if err != nil {
				return Table1Row{}, fmt.Errorf("%s vs %s: %w", adv.Name(), s.Name(), err)
			}
			if minName == "" || out.Ratio < minRatio {
				minRatio, minName = out.Ratio, s.Name()
			}
		}
		return Table1Row{
			Theorem:      adv.Theorem(),
			PlatformType: adv.Platform().Classify().String(),
			Objective:    adv.Objective(),
			BoundExpr:    adv.BoundExpr(),
			Bound:        adv.Bound(),
			Slack:        adv.Slack(),
			MinRatio:     minRatio,
			MinScheduler: minName,
			Confirmed:    minRatio >= adv.Bound()-adv.Slack()-1e-9,
		}, nil
	})
	if err != nil {
		panic(fmt.Sprintf("experiment: table 1: %v", err))
	}
	return rows
}

// Table1Result converts Table-1 rows into the machine-readable record
// (one cell per theorem; adversary games take no random seed, so cell
// seeds are derived but unused).
func Table1Result(rows []Table1Row) runner.Result {
	raw := runner.Result{Experiment: "table1"}
	for _, r := range rows {
		cell := runner.NewCell(0, fmt.Sprintf("table1/theorem=%d", r.Theorem))
		cell.Values["bound"] = r.Bound
		cell.Values["slack"] = r.Slack
		cell.Values["min_ratio"] = r.MinRatio
		cell.Values["confirmed"] = boolToFloat(r.Confirmed)
		cell.Labels = map[string]string{
			"platform_type":   r.PlatformType,
			"objective":       r.Objective.String(),
			"bound_expr":      r.BoundExpr,
			"worst_scheduler": r.MinScheduler,
		}
		raw.Cells = append(raw.Cells, cell)
	}
	raw.Summarize()
	return raw
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// RenderTable1 formats the Table-1 reproduction, including the exact
// verification status of each proof.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1 — lower bounds on the competitive ratio of deterministic on-line algorithms\n")
	b.WriteString("(exact constants verified in Q[√d]; measured = worst ratio over the scheduler registry)\n\n")
	headers := []string{"thm", "platform type", "objective", "bound", "≈", "measured min", "worst scheduler", "confirmed"}
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{
			fmt.Sprintf("%d", r.Theorem),
			r.PlatformType,
			r.Objective.String(),
			r.BoundExpr,
			fmt.Sprintf("%.3f", r.Bound),
			fmt.Sprintf("%.4f", r.MinRatio),
			r.MinScheduler,
			fmt.Sprintf("%v", r.Confirmed),
		})
	}
	b.WriteString(textplot.Table(headers, tr))

	b.WriteString("\nexact proof verification:\n")
	for _, v := range lowerbound.All() {
		err := v.Verify()
		status := "ok"
		if err != nil {
			status = err.Error()
		}
		fmt.Fprintf(&b, "  theorem %d (%d checks): %s\n", v.Theorem, len(v.Checks), status)
	}
	return b.String()
}
