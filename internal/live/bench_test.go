package live

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// BenchmarkLifecycleRung is the benchmark ladder's bottom lifecycle rung
// (bench/ladder.go's lifecycleLive) as a go test benchmark, so the rung
// can be profiled in one command:
//
//	go test ./internal/live -run '^$' -bench LifecycleRung -cpuprofile cpu.out
//
// The canonical eight-slave platform is split four ways; each part is a
// bare Runtime on its own virtual clock — master dispatch, slave service
// and the vclock kernel, no tracker, no observer — fed 512-job slabs
// under the cluster intake's 1024-job admission window, all four running
// at once as they do under the cluster.
func BenchmarkLifecycleRung(b *testing.B) {
	const (
		jobs        = 200_000 // per iteration, split evenly over the parts
		slabSize    = 512
		admitWindow = 1024
		admitPoll   = 0.01
	)
	pl := core.NewPlatform(
		[]float64{0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.1, 0.2},
		[]float64{0.4, 0.8, 0.4, 0.8, 0.4, 0.8, 0.4, 0.8})
	parts, err := pl.Partition(4, core.PartitionBalanced)
	if err != nil {
		b.Fatal(err)
	}
	run := func(pl core.Platform, n int) error {
		var rt *Runtime
		source := func(src *Source) {
			slab := make([]JobSpec, slabSize)
			for sent := 0; sent < n; {
				wait := admitPoll
				for rt.Load().Outstanding() >= admitWindow {
					src.Sleep(wait)
					if wait < admitPoll*1024 {
						wait *= 2
					}
				}
				k := min(slabSize, n-sent)
				src.SubmitSpecs(slab[:k])
				sent += k
			}
			src.Drain()
		}
		rt, err := New(Config{
			Platform:  pl,
			Scheduler: sched.New("LS"),
			World:     NewVirtual(),
			Sources:   []func(*Source){source},
		})
		if err != nil {
			return err
		}
		return rt.Wait()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errs := make([]error, len(parts))
		var wg sync.WaitGroup
		for k, part := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[k] = run(part.Platform, jobs/len(parts))
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/job")
}
