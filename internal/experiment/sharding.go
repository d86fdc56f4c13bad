package experiment

// The sharding study: what does partitioned (multi-master) scheduling
// cost against the monolithic scheduler? A k-shard cluster splits the
// platform's slaves into k one-port islands, each driven by its own
// instance of the heuristic over a 1/k slice of the bag; the cluster's
// makespan is the slowest shard's, its sum-flow the sum, its max-flow
// the max. The reported quantity is degradation — merged metric over the
// same heuristic's run on the whole platform — so "what does giving up
// global scheduling buy and cost" reads directly: values below 1 mean
// the extra ports beat the lost coordination (typical on comm-bound
// platforms), values above 1 mean the monolithic master's global view
// was worth more. k = 1 is the exact identity (degradation 1.0 by
// construction), anchoring the table. See DESIGN.md §11.

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/textplot"
)

// ShardingShardCounts are the swept cluster widths. k = 1 is the
// monolithic anchor; counts above Config.M are skipped per platform.
var ShardingShardCounts = []int{1, 2, 4}

// shardingVariants enumerates the swept (k, strategy) grid: the k = 1
// anchor once (the strategies coincide there), every larger k under
// both partition strategies.
func shardingVariants() []struct {
	K        int
	Strategy core.PartitionStrategy
} {
	var out []struct {
		K        int
		Strategy core.PartitionStrategy
	}
	for _, k := range ShardingShardCounts {
		if k == 1 {
			out = append(out, struct {
				K        int
				Strategy core.PartitionStrategy
			}{1, core.PartitionStriped})
			continue
		}
		for _, strategy := range core.PartitionStrategies {
			out = append(out, struct {
				K        int
				Strategy core.PartitionStrategy
			}{k, strategy})
		}
	}
	return out
}

// shardingVariantKey renders the value-key fragment for one variant.
func shardingVariantKey(k int, strategy core.PartitionStrategy) string {
	return fmt.Sprintf("k=%d/%s", k, strategy)
}

// ShardingStudyResult is the partitioned-vs-monolithic sweep: per
// platform class, per-scheduler degradation summaries over platform
// replicates, plus the flat machine-readable record.
type ShardingStudyResult struct {
	Config  Config
	Classes []core.Class
	Order   []string // scheduler presentation order (paper seven + SO-LS)
	// Groups maps a class name to value-key summaries
	// ("LS/k=2/striped/makespan-degradation") over its replicates.
	Groups map[string]map[string]stats.Summary
	Raw    runner.Result
}

// ShardingStudy sweeps shard count × partition strategy × platform
// class × heuristic through the deterministic runner (all four classes;
// see ShardingStudyOver for a filtered sweep).
func ShardingStudy(cfg Config) ShardingStudyResult {
	return ShardingStudyOver(core.Classes, cfg)
}

// ShardingStudyOver is ShardingStudy restricted to the given classes.
// Each cell is one random platform replicate: it draws the platform
// from its own shard stream, runs every heuristic monolithically and
// under each (k, strategy) partition with the bag split 1/k per shard
// (round-robin over identical tasks), and records per-objective
// degradations. Cell keys and seeds depend only on the cell's own
// coordinates, so the study is bit-identical for every worker count and
// any class filter reproduces the corresponding cells of the full sweep.
func ShardingStudyOver(classes []core.Class, cfg Config) ShardingStudyResult {
	if len(classes) == 0 {
		panic("experiment: sharding study over no platform classes")
	}
	cfg = cfg.withDefaults()
	order := append(append([]string(nil), cfg.Schedulers...), SpeedObliviousName)
	variants := shardingVariants()

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
		key := fmt.Sprintf("sharding/%v/platform=%03d", g.class, g.platform)
		cell := runner.NewCellSized(cfg.Seed, key, len(order)*len(variants)*len(core.Objectives))
		cell.Labels = map[string]string{"class": g.class.String()}
		pl := core.Random(runner.RNG(cfg.Seed, key+"/platform"), g.class, core.GenConfig{M: cfg.M})

		for _, name := range order {
			mono, err := sim.Simulate(pl, schedulerFor(name, cfg.Tasks), core.Bag(cfg.Tasks))
			if err != nil {
				return cell, fmt.Errorf("%s: monolithic %s on %v: %w", key, name, pl, err)
			}
			base := map[core.Objective]float64{}
			for _, obj := range core.Objectives {
				base[obj] = obj.Value(mono)
			}
			for _, v := range variants {
				if v.K > pl.M() {
					continue
				}
				parts, err := pl.Partition(v.K, v.Strategy)
				if err != nil {
					return cell, fmt.Errorf("%s: partition k=%d %s: %w", key, v.K, v.Strategy, err)
				}
				merged := map[core.Objective]float64{}
				for s, part := range parts {
					// Round-robin split of the bag: shard s serves every k-th
					// task, i.e. an equal slice up to remainder.
					n := cfg.Tasks / v.K
					if s < cfg.Tasks%v.K {
						n++
					}
					if n == 0 {
						continue
					}
					sub, err := sim.Simulate(part.Platform, schedulerFor(name, n), core.Bag(n))
					if err != nil {
						return cell, fmt.Errorf("%s: %s shard %d of k=%d %s: %w", key, name, s, v.K, v.Strategy, err)
					}
					mergeShardObjectives(merged, sub)
				}
				vk := shardingVariantKey(v.K, v.Strategy)
				for _, obj := range core.Objectives {
					cell.Values[name+"/"+vk+"/"+obj.String()+"-degradation"] = merged[obj] / base[obj]
				}
			}
		}
		return cell, nil
	})
	if err != nil {
		panic(fmt.Sprintf("experiment: sharding study: %v", err))
	}

	raw := runner.Result{
		Experiment: "sharding-study",
		Params:     cfg.params(),
		RootSeed:   cfg.Seed,
		Cells:      cells,
	}
	raw.Summarize()

	groups := groupSummaries(cells, func(c runner.Cell) string { return c.Labels["class"] })

	return ShardingStudyResult{
		Config:  cfg.canonical(),
		Classes: append([]core.Class(nil), classes...),
		Order:   order,
		Groups:  groups,
		Raw:     raw,
	}
}

// Render formats one makespan-degradation table per platform class:
// rows are schedulers, columns the (k, strategy) variants, values the
// mean ratio of the partitioned cluster's makespan to the monolithic
// run (1 = partitioning was free; < 1 = the extra ports won).
func (r ShardingStudyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharding study — makespan degradation of k-shard clusters vs the monolithic master (n=%d tasks, %d platforms of %d slaves)\n",
		r.Config.Tasks, r.Config.Platforms, r.Config.M)
	variants := shardingVariants()
	for _, class := range r.Classes {
		fmt.Fprintf(&b, "\n%v:\n", class)
		headers := []string{"algorithm"}
		var cols []string
		for _, v := range variants {
			headers = append(headers, shardingVariantKey(v.K, v.Strategy))
			cols = append(cols, shardingVariantKey(v.K, v.Strategy))
		}
		var rows [][]string
		for _, name := range r.Order {
			row := []string{name}
			for _, col := range cols {
				s, ok := r.Groups[class.String()][name+"/"+col+"/makespan-degradation"]
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
