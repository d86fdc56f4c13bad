//go:build !race

package cluster

// firehoseSmokeJobs is the firehose smoke's job count: the full million
// normally, a 100k subset under the race detector (see the race-tagged
// twin) — the synchronization story is identical, only the wall cost
// differs.
const firehoseSmokeJobs = 1_000_000

// concurrentAdmissionAllocs is TestConcurrentAdmissionAllocs' ceiling:
// 1.15 × the 300 allocations per burst it measured when written.
const concurrentAdmissionAllocs = 345
