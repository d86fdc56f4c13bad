//go:build race

package schedd

// streamSmokeJobs under the race detector: a 100k subset at a wall
// cost CI can afford.
const streamSmokeJobs = 100_000
