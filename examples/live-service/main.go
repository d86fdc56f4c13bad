// Example live-service: the concurrent master–slave runtime serving a
// stream of jobs from multiple producers on the scaled wall clock, then
// the same workload replayed on the deterministic virtual clock to show
// the sim-vs-live conformance property.
//
// Run with: go run ./examples/live-service
package main

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	pl := core.NewPlatform([]float64{0.1, 0.25, 0.5}, []float64{0.5, 2, 4})
	fmt.Printf("platform: %v (%v)\n\n", pl, pl.Classify())

	// --- Part 1: a real concurrent run, 2000× faster than nominal. ---
	rt, err := live.New(live.Config{
		Platform:  pl,
		Scheduler: sched.New("LS"),
		World:     live.NewRealTime(2000),
	})
	if err != nil {
		panic(err)
	}
	rt.Start()

	const producers, perProducer = 3, 20
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				rt.Submit(live.JobSpec{})
			}
		}()
	}
	wg.Wait()
	rt.Drain()
	if err := rt.Wait(); err != nil {
		panic(err)
	}

	snap := rt.Tracker().Stats()
	lat := make([]float64, len(snap.Records))
	for i, rec := range snap.Records {
		lat[i] = rec.Flow()
	}
	fmt.Printf("live run (wall clock ×2000): %d jobs submitted by %d goroutines, %d completed\n",
		snap.Counts.Submitted, producers, snap.Counts.Completed)
	fmt.Printf("latency (model s): p50 %.3f  p95 %.3f  p99 %.3f\n",
		stats.Percentile(lat, 0.50), stats.Percentile(lat, 0.95), stats.Percentile(lat, 0.99))
	fmt.Println()
	fmt.Print(trace.Analyze(rt.Result().Schedule).Render())

	// --- Part 2: virtual clock — bit-identical to the simulator. ---
	tasks := core.ReleasesAt(0, 0, 0.5, 1, 1, 2, 3, 3)
	res, err := live.Run(live.Config{
		Platform:  pl,
		Scheduler: sched.New("SRPT"),
		World:     live.NewVirtual(),
		Sources:   []func(*live.Source){live.Replay(tasks)},
	})
	if err != nil {
		panic(err)
	}
	des, err := sim.Simulate(pl, sched.New("SRPT"), tasks)
	if err != nil {
		panic(err)
	}
	identical := len(des.Records) == len(res.Schedule.Records)
	for i := range des.Records {
		if des.Records[i] != res.Schedule.Records[i] {
			identical = false
		}
	}
	fmt.Printf("\nvirtual-clock live run vs discrete-event simulator (SRPT, %d tasks):\n", len(tasks))
	fmt.Printf("  live makespan  %.6f\n", res.Schedule.Makespan())
	fmt.Printf("  sim  makespan  %.6f\n", des.Makespan())
	fmt.Printf("  records bit-identical: %v\n", identical)
}
