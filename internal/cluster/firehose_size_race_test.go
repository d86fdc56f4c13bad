//go:build race

package cluster

// firehoseSmokeJobs under the race detector: a 100k subset — the same
// intake/drain interleavings at a wall cost CI can afford.
const firehoseSmokeJobs = 100_000

// concurrentAdmissionAllocs under the race detector, whose sync.Pool
// drops a random share of puts: 1.15 × the median 348 allocations per
// burst it measured when written (344–355 over 15 runs).
const concurrentAdmissionAllocs = 400
