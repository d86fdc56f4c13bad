//go:build !race

package schedd

// streamSmokeJobs is TestStreamEndToEnd's population: the full million
// normally, a 100k subset under the race detector (see the race-tagged
// twin) — the same stream, sequencer and intake interleavings, only the
// wall cost differs.
const streamSmokeJobs = 1_000_000
