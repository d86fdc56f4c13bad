// Package core defines the domain model shared by every subsystem of the
// reproduction: the one-port master-slave platform, tasks with release
// times, per-task schedule records, the paper's three objective functions,
// and a validator that checks any schedule against the model's constraints.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Class labels the four platform families studied in the paper.
type Class int

const (
	// Homogeneous platforms have identical links and identical processors.
	Homogeneous Class = iota
	// CommHomogeneous platforms have identical links (c_j = c) and
	// heterogeneous processors.
	CommHomogeneous
	// CompHomogeneous platforms have identical processors (p_j = p) and
	// heterogeneous links.
	CompHomogeneous
	// Heterogeneous platforms are heterogeneous in both dimensions.
	Heterogeneous
)

// String returns the conventional name used throughout the paper.
func (c Class) String() string {
	switch c {
	case Homogeneous:
		return "homogeneous"
	case CommHomogeneous:
		return "comm-homogeneous"
	case CompHomogeneous:
		return "comp-homogeneous"
	case Heterogeneous:
		return "heterogeneous"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classes lists all four families in presentation order (Figure 1 a–d).
var Classes = []Class{Homogeneous, CommHomogeneous, CompHomogeneous, Heterogeneous}

// Platform is a master-slave platform under the one-port model: the master
// needs C[j] time units of exclusive port use to ship one task to slave j,
// which then needs P[j] time units to execute it.
type Platform struct {
	C []float64 // per-slave communication time (seconds per task)
	P []float64 // per-slave computation time (seconds per task)
}

// NewPlatform builds a platform from per-slave communication and
// computation times. It panics if the slices differ in length, are empty,
// or contain values that are not finite and positive; platforms are
// constructed from trusted experiment code, so misuse is a programming
// error.
func NewPlatform(c, p []float64) Platform {
	if len(c) == 0 || len(c) != len(p) {
		panic(fmt.Sprintf("core: platform needs matching non-empty c (%d) and p (%d)", len(c), len(p)))
	}
	for j := range c {
		if badCost(c[j]) || badCost(p[j]) {
			panic(fmt.Sprintf("core: slave %d has a cost that is not finite and positive: c=%v p=%v", j, c[j], p[j]))
		}
	}
	pl := Platform{C: append([]float64(nil), c...), P: append([]float64(nil), p...)}
	return pl
}

// M returns the number of slaves.
func (pl Platform) M() int { return len(pl.C) }

// Clone returns a deep copy.
func (pl Platform) Clone() Platform {
	return Platform{
		C: append([]float64(nil), pl.C...),
		P: append([]float64(nil), pl.P...),
	}
}

// Classify reports the heterogeneity class of the platform, treating
// values equal within a 1e-12 relative tolerance as identical.
func (pl Platform) Classify() Class {
	commHomog := allEqual(pl.C)
	compHomog := allEqual(pl.P)
	switch {
	case commHomog && compHomog:
		return Homogeneous
	case commHomog:
		return CommHomogeneous
	case compHomog:
		return CompHomogeneous
	default:
		return Heterogeneous
	}
}

func allEqual(v []float64) bool {
	for _, x := range v[1:] {
		d := x - v[0]
		if d < 0 {
			d = -d
		}
		if d > 1e-12*(1+v[0]) {
			return false
		}
	}
	return true
}

// String renders the platform compactly, e.g. "m=2 c=[1 1] p=[3 7]".
func (pl Platform) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "m=%d c=%v p=%v", pl.M(), pl.C, pl.P)
	return b.String()
}

// GenConfig controls random platform generation. The defaults mirror the
// paper's experimental setup (Section 4.2): five machines with
// communication times in [0.01 s, 1 s] and computation times in
// [0.1 s, 8 s].
type GenConfig struct {
	M          int     // number of slaves (default 5)
	CMin, CMax float64 // communication-time range (default [0.01, 1])
	PMin, PMax float64 // computation-time range (default [0.1, 8])
}

// DefaultGenConfig returns the paper's experimental parameters.
func DefaultGenConfig() GenConfig {
	return GenConfig{M: 5, CMin: 0.01, CMax: 1, PMin: 0.1, PMax: 8}
}

func (g GenConfig) withDefaults() GenConfig {
	d := DefaultGenConfig()
	if g.M <= 0 {
		g.M = d.M
	}
	if g.CMax <= g.CMin {
		g.CMin, g.CMax = d.CMin, d.CMax
	}
	if g.PMax <= g.PMin {
		g.PMin, g.PMax = d.PMin, d.PMax
	}
	return g
}

func uniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo + rng.Float64()*(hi-lo)
}

// Random draws a platform of the requested class. Homogeneous dimensions
// draw a single shared value from the same range, matching the paper's
// procedure of prescribing one property on otherwise random platforms.
func Random(rng *rand.Rand, class Class, cfg GenConfig) Platform {
	cfg = cfg.withDefaults()
	c := make([]float64, cfg.M)
	p := make([]float64, cfg.M)
	sharedC := uniform(rng, cfg.CMin, cfg.CMax)
	sharedP := uniform(rng, cfg.PMin, cfg.PMax)
	for j := 0; j < cfg.M; j++ {
		switch class {
		case Homogeneous:
			c[j], p[j] = sharedC, sharedP
		case CommHomogeneous:
			c[j], p[j] = sharedC, uniform(rng, cfg.PMin, cfg.PMax)
		case CompHomogeneous:
			c[j], p[j] = uniform(rng, cfg.CMin, cfg.CMax), sharedP
		case Heterogeneous:
			c[j], p[j] = uniform(rng, cfg.CMin, cfg.CMax), uniform(rng, cfg.PMin, cfg.PMax)
		default:
			panic(fmt.Sprintf("core: unknown class %v", class))
		}
	}
	return NewPlatform(c, p)
}

// Validate checks platform well-formedness for platforms deserialized or
// assembled field-by-field rather than via NewPlatform.
func (pl Platform) Validate() error {
	if pl.M() == 0 {
		return errors.New("core: platform has no slaves")
	}
	if len(pl.C) != len(pl.P) {
		return fmt.Errorf("core: mismatched cost vectors: %d communication vs %d computation", len(pl.C), len(pl.P))
	}
	for j := range pl.C {
		if badCost(pl.C[j]) {
			return fmt.Errorf("core: slave %d has non-positive or non-finite communication time %v", j, pl.C[j])
		}
		if badCost(pl.P[j]) {
			return fmt.Errorf("core: slave %d has non-positive or non-finite computation time %v", j, pl.P[j])
		}
	}
	return nil
}

// badCost reports a per-task cost a master cannot schedule with: zero,
// negative, +Inf, or NaN (which compares false against everything, so the
// test is "not greater than zero", not "at most zero").
func badCost(x float64) bool { return !(x > 0) || math.IsInf(x, 1) }
