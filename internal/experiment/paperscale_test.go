package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// paperScaleDigestFile pins the rendered Figure 1 (all four classes) and
// Figure 2 at the paper's scale — ten platforms of five machines, one
// thousand tasks — with every registered heuristic plus SO-LS. At this
// scale the SLJFWC planner plans 1000 tasks per platform, which no other
// tier-1 golden reaches. A deliberate change of the figures regenerates the
// file from the digest the failure prints.
const paperScaleDigestFile = "paper_scale_seed2006.sha256"

func TestPaperScaleFiguresDigest(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", paperScaleDigestFile))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 2006, Schedulers: sched.ExtendedNames()}
	h := sha256.New()
	for _, class := range core.Classes {
		h.Write([]byte(Figure1(class, cfg).Render()))
	}
	h.Write([]byte(Figure2(cfg).Render()))
	if got := hex.EncodeToString(h.Sum(nil)); got != strings.TrimSpace(string(want)) {
		t.Fatalf("paper-scale Figure 1 + Figure 2 digest %s, want %s (testdata/%s)", got, strings.TrimSpace(string(want)), paperScaleDigestFile)
	}
}
