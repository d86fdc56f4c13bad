package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// plannerDigestFile pins the backward planners' output on seeded platforms
// of all four classes: the SLJF and SLJFWC plans (planSlots on the mean
// link, planOnePort's uniform-p path and its heterogeneous path with and
// without the local search), OfflinePlan, the bits of OfflineLowerBound,
// and both schedulers run past a horizon shorter than the task count. The
// costs are small dyadic rationals drawn from integers, so every product
// the engine forms from them is exact and the digest does not depend on
// whether an architecture fuses multiply-adds outside this package. A
// deliberate change of a plan regenerates the file from the digest the
// failure prints.
const plannerDigestFile = "planner_digest.sha256"

// dyadicCosts returns m costs in (0, 4] on a 1/64 grid, all equal to the
// first when same is set.
func dyadicCosts(rng *rand.Rand, m int, same bool) []float64 {
	out := make([]float64, m)
	for j := range out {
		if j == 0 || !same {
			out[j] = float64(1+rng.Intn(256)) / 64
		} else {
			out[j] = out[0]
		}
	}
	return out
}

func TestPlannerDigest(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", plannerDigestFile))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	ints := func(v []int) {
		writeDigestInt(h, len(v))
		for _, x := range v {
			writeDigestInt(h, x)
		}
	}
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 400; i++ {
		class := core.Classes[i%len(core.Classes)]
		m := 1 + rng.Intn(8)
		pl := core.NewPlatform(
			dyadicCosts(rng, m, class == core.Homogeneous || class == core.CommHomogeneous),
			dyadicCosts(rng, m, class == core.Homogeneous || class == core.CompHomogeneous))
		n := 1 + rng.Intn(300)
		for _, s := range []*Planned{NewSLJF(n), NewSLJFWC(n)} {
			s.Reset(pl)
			ints(s.plan)
		}
		ints(OfflinePlan(pl, n))
		writeDigestInt(h, int(math.Float64bits(OfflineLowerBound(pl, n))))
		// A horizon shorter than the task count: the plan's prefix, then
		// list scheduling.
		horizon := max(1, rng.Intn(n))
		for _, s := range []sim.Scheduler{NewSLJF(horizon), NewSLJFWC(horizon)} {
			sch, err := sim.Simulate(pl, s, core.Bag(n))
			if err != nil {
				t.Fatalf("platform %d (%v): %s: %v", i, pl, s.Name(), err)
			}
			for _, r := range sch.Records {
				writeDigestInt(h, r.Slave)
			}
			writeDigestInt(h, int(math.Float64bits(sch.Makespan())))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != strings.TrimSpace(string(want)) {
		t.Fatalf("planner digest %s, want %s (testdata/%s)", got, strings.TrimSpace(string(want)), plannerDigestFile)
	}
}

func writeDigestInt(h hash.Hash, x int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(x))
	h.Write(b[:])
}
