//go:build race

package cluster

// firehoseSmokeJobs under the race detector: a 100k subset — the same
// intake/drain interleavings at a wall cost CI can afford.
const firehoseSmokeJobs = 100_000

// concurrentAdmissionAllocs under the race detector, whose sync.Pool
// drops a random share of puts: 1.15 × the median 348 allocations per
// burst it measured when written (344–355 over 15 runs).
const concurrentAdmissionAllocs = 400

// retentionJobs under the race detector: a smaller population at a wall
// cost CI can afford. The fixed costs (≈2 MB) still fit the ceiling's
// slack: 97–98 B/job measured when written.
const retentionJobs = 150_000
