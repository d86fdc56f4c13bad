package masterslave

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fusedInstr matches a multiply-add in `go build -gcflags=-S` output,
// capturing the source position and the mnemonic (FMADDD, FNMSUBD on
// arm64 and riscv64; FMADD, FMSUB on ppc64le and s390x).
var fusedInstr = regexp.MustCompile(`\((\S+\.go:\d+)\)\s+(FN?M(?:ADD|SUB)[A-Z]*)\s`)

// TestNoFusedMultiplyAdd cross-compiles the module for each architecture
// gc fuses on and fails on any fused multiply-add, naming its file and
// line. The Go spec lets a compiler fuse x*y + z into one multiply-add
// with a single rounding, and gc does so on arm64, ppc64le, s390x and
// riscv64 (never on amd64); an explicit float64(…) conversion around the
// product prevents it. So every float operation in the module rounds on
// its own on every architecture: the planners' differential tests and
// digests compare floats bit for bit, the uniform-p planner's rounding
// bound assumes separate roundings, and the figures, goldens and
// checksums are made of the engine's instants, the generators' draws and
// the percentiles every cell passes through.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		cmd := exec.Command(goTool, "build", "-gcflags=-S", "./...")
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go build: %v\n%s", arch, err, out)
		}
		// A build that listed no assembly would pass vacuously.
		if !strings.Contains(string(out), filepath.Join(wd, "internal", "sched")+string(filepath.Separator)) {
			t.Fatalf("GOARCH=%s: no assembly listed for internal/sched", arch)
		}
		fused := fusedInstr.FindAllStringSubmatch(string(out), -1)
		for _, m := range fused {
			pos := m[1]
			if rel, err := filepath.Rel(wd, pos); err == nil {
				pos = rel
			}
			t.Errorf("GOARCH=%s: %s fuses a multiply-add (%s)", arch, pos, m[2])
		}
		t.Logf("GOARCH=%s: %d fused multiply-adds", arch, len(fused))
	}
}
