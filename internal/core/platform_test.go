package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestNewPlatformCopies(t *testing.T) {
	c := []float64{1, 2}
	p := []float64{3, 4}
	pl := NewPlatform(c, p)
	c[0] = 99
	p[1] = 99
	if pl.C[0] != 1 || pl.P[1] != 4 {
		t.Fatal("NewPlatform aliases caller slices")
	}
}

func TestNewPlatformPanics(t *testing.T) {
	cases := []struct {
		name string
		c, p []float64
	}{
		{"empty", nil, nil},
		{"mismatched", []float64{1}, []float64{1, 2}},
		{"zero comm", []float64{0}, []float64{1}},
		{"negative comp", []float64{1}, []float64{-1}},
		{"NaN comm", []float64{math.NaN()}, []float64{1}},
		{"Inf comp", []float64{1}, []float64{math.Inf(1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewPlatform(tc.c, tc.p)
		})
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		c, p []float64
		want Class
	}{
		{[]float64{1, 1}, []float64{3, 3}, Homogeneous},
		{[]float64{1, 1}, []float64{3, 7}, CommHomogeneous},
		{[]float64{1, 2}, []float64{3, 3}, CompHomogeneous},
		{[]float64{1, 2}, []float64{3, 7}, Heterogeneous},
	}
	for _, tc := range cases {
		pl := NewPlatform(tc.c, tc.p)
		if got := pl.Classify(); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", pl, got, tc.want)
		}
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		Homogeneous:     "homogeneous",
		CommHomogeneous: "comm-homogeneous",
		CompHomogeneous: "comp-homogeneous",
		Heterogeneous:   "heterogeneous",
	}
	for class, want := range names {
		if got := class.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", class, got, want)
		}
	}
}

func TestRandomRespectsClassAndRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultGenConfig()
	for _, class := range Classes {
		for trial := 0; trial < 20; trial++ {
			pl := Random(rng, class, cfg)
			if pl.M() != 5 {
				t.Fatalf("class %v: m = %d, want 5", class, pl.M())
			}
			if got := pl.Classify(); got != class {
				t.Fatalf("class %v: generated %v platform %v", class, got, pl)
			}
			for j := 0; j < pl.M(); j++ {
				if pl.C[j] < cfg.CMin || pl.C[j] > cfg.CMax {
					t.Fatalf("class %v: c[%d]=%v outside [%v,%v]", class, j, pl.C[j], cfg.CMin, cfg.CMax)
				}
				if pl.P[j] < cfg.PMin || pl.P[j] > cfg.PMax {
					t.Fatalf("class %v: p[%d]=%v outside [%v,%v]", class, j, pl.P[j], cfg.PMin, cfg.PMax)
				}
			}
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a := Random(rand.New(rand.NewSource(7)), Heterogeneous, GenConfig{})
	b := Random(rand.New(rand.NewSource(7)), Heterogeneous, GenConfig{})
	for j := range a.C {
		if a.C[j] != b.C[j] || a.P[j] != b.P[j] {
			t.Fatal("same seed produced different platforms")
		}
	}
}

func TestGenConfigDefaults(t *testing.T) {
	pl := Random(rand.New(rand.NewSource(3)), Heterogeneous, GenConfig{M: 2})
	if pl.M() != 2 {
		t.Fatalf("explicit M ignored: %d", pl.M())
	}
}

func TestPlatformValidate(t *testing.T) {
	good := NewPlatform([]float64{1}, []float64{2})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid platform rejected: %v", err)
	}
	bad := Platform{C: []float64{1, -1}, P: []float64{1, 1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative communication time accepted")
	}
	if err := (Platform{}).Validate(); err == nil {
		t.Fatal("empty platform accepted")
	}
	if err := (Platform{C: []float64{1}, P: []float64{1, 2}}).Validate(); err == nil {
		t.Fatal("mismatched platform accepted")
	}
	// NaN compares false with everything, +Inf is "positive": neither is a
	// cost a master can sleep for or divide by.
	for _, x := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (Platform{C: []float64{1, x}, P: []float64{1, 1}}).Validate(); err == nil {
			t.Errorf("communication time %v accepted", x)
		}
		if err := (Platform{C: []float64{1, 1}, P: []float64{x, 1}}).Validate(); err == nil {
			t.Errorf("computation time %v accepted", x)
		}
	}
}

func TestPlatformString(t *testing.T) {
	pl := NewPlatform([]float64{1, 1}, []float64{3, 7})
	s := pl.String()
	if !strings.Contains(s, "m=2") || !strings.Contains(s, "3 7") {
		t.Fatalf("String() = %q", s)
	}
}

func TestCloneIndependent(t *testing.T) {
	pl := NewPlatform([]float64{1, 2}, []float64{3, 4})
	cp := pl.Clone()
	cp.C[0] = 42
	if pl.C[0] == 42 {
		t.Fatal("Clone shares memory")
	}
}

func TestParseClass(t *testing.T) {
	for _, c := range Classes {
		if got, err := ParseClass(c.String()); err != nil || got != c {
			t.Fatalf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	_, err := ParseClass("heterogenous")
	if err == nil {
		t.Fatal("misspelt class accepted")
	}
	for _, c := range Classes {
		if !strings.Contains(err.Error(), c.String()) {
			t.Fatalf("error %q does not list %q", err, c.String())
		}
	}
}
