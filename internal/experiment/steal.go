package experiment

// The steal study: how much of the damage done by skewed placement can
// cross-shard work stealing undo? A k-shard cluster is handed a bag
// whose initial placement concentrates a skew fraction of the jobs on
// shard 0 (skew 1.0 = everything lands on one master — what the
// "pinned" placement produces, and what a misled load-sensitive policy
// degenerates to). The real cluster.StealPolicy implementations then
// replan that allocation on synthetic Load snapshots, iterated to a
// fixpoint exactly as the live rebalancer converges over passes, and
// each shard's final bag is simulated with the per-shard heuristic.
// The reported quantity is recovery — the merged makespan under the
// policy over the merged makespan with stealing off — so values below
// 1 read directly as "stealing clawed this fraction back". The study
// is deterministic (runner.Map over hash-seeded cells) and exercises
// the same Plan code the runtime rebalancer executes, so a policy
// regression shows up here without spinning up a single goroutine.
// See DESIGN.md §12.

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/textplot"
)

// StealShardCounts are the swept cluster widths.
var StealShardCounts = []int{2, 4}

// StealSkews are the swept skew fractions: the share of the bag forced
// onto shard 0 before stealing (the rest is spread evenly). 1.0 is the
// fully-pinned adversarial case.
var StealSkews = []float64{0.5, 1.0}

// stealVariantKey renders the value-key fragment for one variant.
func stealVariantKey(k int, skew float64, policy string) string {
	return fmt.Sprintf("k=%d/skew=%.1f/steal=%s", k, skew, policy)
}

// StealStudyResult is the stealing-under-skew sweep: per platform
// class, per-scheduler recovery summaries over platform replicates,
// plus the flat machine-readable record.
type StealStudyResult struct {
	Config  Config
	Classes []core.Class
	Order   []string // scheduler presentation order (paper seven + SO-LS)
	// Groups maps a class name to value-key summaries
	// ("LS/k=4/skew=1.0/steal=threshold/makespan-recovery") over its
	// replicates.
	Groups map[string]map[string]stats.Summary
	Raw    runner.Result
}

// StealStudy sweeps steal policy × skew × shard count × platform class
// × heuristic through the deterministic runner (all four classes; see
// StealStudyOver for a filtered sweep).
func StealStudy(cfg Config) StealStudyResult {
	return StealStudyOver(core.Classes, cfg)
}

// StealStudyOver is StealStudy restricted to the given classes. Each
// cell is one random platform replicate: the platform is partitioned
// (striped), the bag is skewed onto shard 0, each registered steal
// policy replans the allocation via stealFixpoint, and every shard's
// final bag is simulated. Per-objective merged values (makespan and
// max-flow as cluster maxima, sum-flow as the sum), the jobs-moved
// count and the recovery ratio against the "none" baseline are
// recorded per variant. Cell keys and seeds depend only on the cell's
// own coordinates, so the study is bit-identical for every worker
// count and any class filter reproduces the corresponding cells of the
// full sweep.
func StealStudyOver(classes []core.Class, cfg Config) StealStudyResult {
	if len(classes) == 0 {
		panic("experiment: steal study over no platform classes")
	}
	cfg = cfg.withDefaults()
	order := append(append([]string(nil), cfg.Schedulers...), SpeedObliviousName)
	policies := cluster.StealPolicyNames()

	type coord struct {
		class    core.Class
		platform int
	}
	var grid []coord
	for _, class := range classes {
		for p := 0; p < cfg.Platforms; p++ {
			grid = append(grid, coord{class, p})
		}
	}

	cells, err := runner.Map(cfg.Workers, len(grid), func(i int) (runner.Cell, error) {
		g := grid[i]
		key := fmt.Sprintf("steal/%v/platform=%03d", g.class, g.platform)
		sized := len(order) * len(StealShardCounts) * len(StealSkews) * len(policies) * (len(core.Objectives) + 2)
		cell := runner.NewCellSized(cfg.Seed, key, sized)
		cell.Labels = map[string]string{"class": g.class.String()}
		pl := core.Random(runner.RNG(cfg.Seed, key+"/platform"), g.class, core.GenConfig{M: cfg.M})

		for _, k := range StealShardCounts {
			if k > pl.M() {
				continue
			}
			parts, err := pl.Partition(k, core.PartitionStriped)
			if err != nil {
				return cell, fmt.Errorf("%s: partition k=%d: %w", key, k, err)
			}
			rates := make([]float64, k)
			for s, part := range parts {
				rates[s] = cluster.NominalRate(part.Platform)
			}
			for _, skew := range StealSkews {
				initial := skewedAllocation(cfg.Tasks, k, skew)
				for _, name := range order {
					base := map[core.Objective]float64{}
					for _, policyName := range policies {
						policy, err := cluster.NewStealPolicy(policyName)
						if err != nil {
							return cell, fmt.Errorf("%s: %w", key, err)
						}
						counts, moved := stealFixpoint(policy, initial, rates)
						merged := map[core.Objective]float64{}
						for s, part := range parts {
							n := counts[s]
							if n == 0 {
								continue
							}
							sub, err := sim.Simulate(part.Platform, schedulerFor(name, n), core.Bag(n))
							if err != nil {
								return cell, fmt.Errorf("%s: %s shard %d of k=%d skew=%.1f steal=%s: %w",
									key, name, s, k, skew, policyName, err)
							}
							mergeShardObjectives(merged, sub)
						}
						vk := stealVariantKey(k, skew, policyName)
						if policyName == cluster.StealNone {
							for _, obj := range core.Objectives {
								base[obj] = merged[obj]
							}
						}
						for _, obj := range core.Objectives {
							cell.Values[name+"/"+vk+"/"+obj.String()] = merged[obj]
						}
						cell.Values[name+"/"+vk+"/jobs-moved"] = float64(moved)
						// The policies iterate after "none" (first in the
						// registry order), so base is always populated here.
						cell.Values[name+"/"+vk+"/makespan-recovery"] = merged[core.Makespan] / base[core.Makespan]
					}
				}
			}
		}
		return cell, nil
	})
	if err != nil {
		panic(fmt.Sprintf("experiment: steal study: %v", err))
	}

	raw := runner.Result{
		Experiment: "steal-study",
		Params:     cfg.params(),
		RootSeed:   cfg.Seed,
		Cells:      cells,
	}
	raw.Summarize()

	groups := groupSummaries(cells, func(c runner.Cell) string { return c.Labels["class"] })

	return StealStudyResult{
		Config:  cfg.canonical(),
		Classes: append([]core.Class(nil), classes...),
		Order:   order,
		Groups:  groups,
		Raw:     raw,
	}
}

// skewedAllocation splits n jobs over k shards with a skew fraction
// pinned to shard 0: shard 0 receives skew·n plus its even share of the
// remainder, every other shard an even share. Rounding residue lands on
// shard 0, so the total is exactly n for every input.
func skewedAllocation(n, k int, skew float64) []int {
	counts := make([]int, k)
	pinned := int(skew * float64(n))
	rest := n - pinned
	for s := 1; s < k; s++ {
		counts[s] = rest / k
	}
	counts[0] = n
	for s := 1; s < k; s++ {
		counts[0] -= counts[s]
	}
	return counts
}

// stealFixpoint replays a steal policy on synthetic Load snapshots
// until it stops planning (or k passes elapse — the live rebalancer
// equivalent of "the next tick sees fresh loads"), returning the final
// per-shard job counts and the total jobs moved. The synthetic Load has
// every job still pending (Submitted = n, nothing dispatched): the
// worst case for imbalance and the exact state of a burst placed
// before any master catches up.
func stealFixpoint(policy cluster.StealPolicy, initial []int, rates []float64) (counts []int, moved int) {
	k := len(initial)
	counts = append([]int(nil), initial...)
	for pass := 0; pass < k; pass++ {
		loads := make([]live.Load, k)
		for s, n := range counts {
			loads[s] = live.Load{Submitted: n, Admitted: n}
		}
		plan := policy.Plan(loads, rates)
		if len(plan) == 0 {
			break
		}
		for _, d := range plan {
			n := d.N
			if n > counts[d.From] {
				n = counts[d.From]
			}
			if n <= 0 || d.From == d.To || d.From < 0 || d.To < 0 || d.From >= k || d.To >= k {
				continue
			}
			counts[d.From] -= n
			counts[d.To] += n
			moved += n
		}
	}
	return counts, moved
}

// Render formats one makespan-recovery table per platform class: rows
// are schedulers, columns the (k, skew, policy) variants, values the
// mean ratio of the rebalanced cluster's makespan to the same skewed
// cluster with stealing off (1 = stealing did nothing; lower is
// better; at skew 1.0 a perfect k-way rebalance approaches 1/k).
func (r StealStudyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Steal study — makespan recovery of rebalanced vs non-rebalanced skewed clusters (n=%d tasks, %d platforms of %d slaves)\n",
		r.Config.Tasks, r.Config.Platforms, r.Config.M)
	var cols []string
	for _, k := range StealShardCounts {
		for _, skew := range StealSkews {
			for _, policy := range cluster.StealPolicyNames() {
				if policy == cluster.StealNone {
					continue
				}
				cols = append(cols, stealVariantKey(k, skew, policy))
			}
		}
	}
	for _, class := range r.Classes {
		fmt.Fprintf(&b, "\n%v:\n", class)
		headers := append([]string{"algorithm"}, cols...)
		var rows [][]string
		for _, name := range r.Order {
			row := []string{name}
			for _, col := range cols {
				s, ok := r.Groups[class.String()][name+"/"+col+"/makespan-recovery"]
				if !ok {
					row = append(row, "—")
					continue
				}
				row = append(row, fmt.Sprintf("%.3f ± %.3f", s.Mean, s.Std))
			}
			rows = append(rows, row)
		}
		b.WriteString(textplot.Table(headers, rows))
	}
	return b.String()
}
