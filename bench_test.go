package masterslave

// One benchmark per paper artifact (Table 1, Figure 1 panels a–d,
// Figure 2) plus the DESIGN.md ablations and the emulation substrate.
// Each benchmark regenerates its artifact at a reduced-but-faithful scale
// and reports the headline quantity via b.ReportMetric so `go test
// -bench=. -benchmem` reproduces the paper's rows and series.
// `cmd/paperbench` runs the same harness at the paper's full scale.
//
// BenchmarkFigure1Serial vs BenchmarkFigure1Parallel is the scaling
// trajectory: the same sweep on a one-worker pool and a GOMAXPROCS-wide
// pool, with bit-identical outputs (DESIGN.md §5) and only the wall clock
// differing.

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/mpiexp"
	"repro/internal/sched"
)

// benchCfg keeps the per-iteration cost of the figure benchmarks modest;
// the shapes at this scale match the full-scale runs through
// cmd/paperbench.
var benchCfg = experiment.Config{Platforms: 3, Tasks: 300, M: 5, Seed: 1}

// BenchmarkTable1 regenerates Table 1: the nine adversary games against
// the full scheduler registry. The reported metric is the worst measured
// ratio over all theorems and schedulers divided by its bound — ≥ 1 means
// every bound is confirmed.
func BenchmarkTable1(b *testing.B) {
	worst := 0.0
	for i := 0; i < b.N; i++ {
		rows := experiment.Table1()
		worst = 10.0
		for _, r := range rows {
			if !r.Confirmed {
				b.Fatalf("theorem %d not confirmed", r.Theorem)
			}
			if v := r.MinRatio / (r.Bound - r.Slack); v < worst {
				worst = v
			}
		}
	}
	b.ReportMetric(worst, "worst-ratio/bound")
}

func benchFigure1(b *testing.B, class core.Class) {
	var r experiment.Figure1Result
	for i := 0; i < b.N; i++ {
		r = experiment.Figure1(class, benchCfg)
	}
	// Report the panel's winner-vs-SRPT makespan (the paper's headline).
	best := 10.0
	for _, n := range r.Order {
		if v := r.Cells[n][core.Makespan].Mean; v < best {
			best = v
		}
	}
	b.ReportMetric(best, "best-normalized-makespan")
	b.ReportMetric(r.Cells["SLJF"][core.Makespan].Mean, "SLJF")
	b.ReportMetric(r.Cells["SLJFWC"][core.Makespan].Mean, "SLJFWC")
	b.ReportMetric(r.Cells["LS"][core.Makespan].Mean, "LS")
}

// BenchmarkFigure1a regenerates Figure 1(a): fully homogeneous platforms.
func BenchmarkFigure1a(b *testing.B) { benchFigure1(b, core.Homogeneous) }

// BenchmarkFigure1b regenerates Figure 1(b): homogeneous links.
func BenchmarkFigure1b(b *testing.B) { benchFigure1(b, core.CommHomogeneous) }

// BenchmarkFigure1c regenerates Figure 1(c): homogeneous processors.
func BenchmarkFigure1c(b *testing.B) { benchFigure1(b, core.CompHomogeneous) }

// BenchmarkFigure1d regenerates Figure 1(d): fully heterogeneous.
func BenchmarkFigure1d(b *testing.B) { benchFigure1(b, core.Heterogeneous) }

// benchFigure1Workers runs the heterogeneous panel at a paper-shaped scale
// on a fixed-size worker pool. At this scale the four panels cost about
// the same (15–18 ms each on one worker of a 2-vCPU Xeon); this one never
// reaches the uniform-p SLJFWC planner, which internal/sched's
// BenchmarkPlanOnePortUniform measures.
func benchFigure1Workers(b *testing.B, workers int) {
	cfg := experiment.Config{Platforms: 8, Tasks: 500, M: 5, Seed: 1, Workers: workers}
	var r experiment.Figure1Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = experiment.Figure1(core.Heterogeneous, cfg)
	}
	b.ReportMetric(r.Cells["SLJFWC"][core.Makespan].Mean, "SLJFWC-makespan")
}

// BenchmarkFigure1Serial is the one-worker baseline of the sweep engine.
func BenchmarkFigure1Serial(b *testing.B) { benchFigure1Workers(b, 1) }

// BenchmarkFigure1Parallel is the same sweep on a GOMAXPROCS-wide pool;
// the ratio to BenchmarkFigure1Serial is the sweep-scaling headline.
func BenchmarkFigure1Parallel(b *testing.B) { benchFigure1Workers(b, 0) }

// BenchmarkFigure2 regenerates the robustness experiment; the reported
// metrics are the mean perturbed/unperturbed ratios across algorithms.
func BenchmarkFigure2(b *testing.B) {
	var r experiment.Figure2Result
	for i := 0; i < b.N; i++ {
		r = experiment.Figure2(benchCfg)
	}
	mk, mf, sf := 0.0, 0.0, 0.0
	for _, n := range r.Order {
		mk += r.Cells[n][core.Makespan].Mean
		mf += r.Cells[n][core.MaxFlow].Mean
		sf += r.Cells[n][core.SumFlow].Mean
	}
	n := float64(len(r.Order))
	b.ReportMetric(mk/n, "makespan-ratio")
	b.ReportMetric(mf/n, "maxflow-ratio")
	b.ReportMetric(sf/n, "sumflow-ratio")
}

// BenchmarkScenarioStudy runs the dynamic-platform sweep (DESIGN.md §8)
// at reduced scale and reports the worst mean makespan degradation over
// every scheduler × group — how much the hardest scenario costs.
func BenchmarkScenarioStudy(b *testing.B) {
	var r experiment.ScenarioStudyResult
	for i := 0; i < b.N; i++ {
		r = experiment.ScenarioStudy(benchCfg)
	}
	worst := 0.0
	for _, group := range r.Groups {
		for _, name := range r.Order {
			if v := group[name+"/makespan-degradation"].Mean; v > worst {
				worst = v
			}
		}
	}
	b.ReportMetric(worst, "worst-makespan-degradation")
}

// BenchmarkAblationRRCap sweeps the Round-Robin outstanding cap
// (DESIGN.md X1).
func BenchmarkAblationRRCap(b *testing.B) {
	var r experiment.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiment.AblationRRCap(core.Homogeneous, benchCfg)
	}
	for _, row := range r.Rows {
		b.ReportMetric(row.Metrics[core.Makespan].Mean, row.Variant)
	}
}

// BenchmarkAblationPlanHorizon sweeps SLJF's plan horizon (DESIGN.md X2).
func BenchmarkAblationPlanHorizon(b *testing.B) {
	var r experiment.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiment.AblationPlanHorizon(benchCfg)
	}
	for _, row := range r.Rows {
		b.ReportMetric(row.Metrics[core.Makespan].Mean, row.Variant)
	}
}

// BenchmarkAblationArrivals compares the heuristics under Poisson
// arrivals at 80% load (DESIGN.md X3).
func BenchmarkAblationArrivals(b *testing.B) {
	var r experiment.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiment.AblationArrivals(0.8, benchCfg)
	}
	for _, row := range r.Rows {
		b.ReportMetric(row.Metrics[core.SumFlow].Mean, row.Variant+"-sumflow")
	}
}

// BenchmarkMPIEmulation runs the Section-4.2 emulated cluster (DESIGN.md
// M1): LS driving 200 determinant tasks across five slaves.
func BenchmarkMPIEmulation(b *testing.B) {
	pl := core.Random(rand.New(rand.NewSource(1)), core.Heterogeneous, core.GenConfig{})
	tasks := core.Bag(200)
	b.ReportAllocs()
	b.ResetTimer()
	var makespan float64
	for i := 0; i < b.N; i++ {
		res, err := mpiexp.Run(mpiexp.Config{
			Platform:  pl,
			Tasks:     tasks,
			Scheduler: sched.NewLS(),
		})
		if err != nil {
			b.Fatal(err)
		}
		makespan = res.Schedule.Makespan()
	}
	b.ReportMetric(makespan, "makespan-s")
}

// BenchmarkAblationModel contrasts the one-port model with the
// macro-dataflow model of the paper's Section 5 (DESIGN.md X5).
func BenchmarkAblationModel(b *testing.B) {
	var r experiment.ModelAblationResult
	for i := 0; i < b.N; i++ {
		r = experiment.AblationModel(core.CompHomogeneous, benchCfg)
	}
	b.ReportMetric(r.OnePort["RRP"].Mean, "RRP-oneport")
	b.ReportMetric(r.Multiport["RRP"].Mean, "RRP-multiport")
	b.ReportMetric(r.Speedup["LS"].Mean, "LS-speedup")
}

// BenchmarkRandomizedStudy plays the randomization study (the paper's
// closing open question) and reports the oblivious-vs-adaptive expected
// ratios around the deterministic 5/4 bound.
func BenchmarkRandomizedStudy(b *testing.B) {
	var r experiment.RandomizedStudyResult
	for i := 0; i < b.N; i++ {
		r = experiment.RandomizedStudy(200, 0.3)
	}
	b.ReportMetric(r.Oblivious.Mean, "oblivious-E-ratio")
	b.ReportMetric(r.Adaptive.Mean, "adaptive-E-ratio")
	b.ReportMetric(r.DeterministicBound, "det-bound")
}

// BenchmarkSimulate1000 is the engine's end-to-end throughput on the
// paper-scale workload (one LS run of 1000 tasks on 5 slaves).
func BenchmarkSimulate1000(b *testing.B) {
	pl := RandomPlatform(rand.New(rand.NewSource(2)), Heterogeneous, 5)
	tasks := Bag(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run("LS", pl, tasks); err != nil {
			b.Fatal(err)
		}
	}
}
