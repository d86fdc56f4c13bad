package masterslave

import (
	"os"
	"os/exec"
	"testing"
)

// TestCrossBuild builds the module for operating systems and a word size
// this machine may not run: the real clock's timed waits are the one
// piece of code split by platform (a timerfd on Linux, the runtime's
// timers elsewhere), and linux/386 has 32-bit timespecs.
func TestCrossBuild(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	for _, target := range []struct{ goos, goarch string }{
		{"darwin", "amd64"}, {"windows", "amd64"}, {"freebsd", "amd64"}, {"linux", "386"},
	} {
		cmd := exec.Command(goTool, "build", "./...")
		cmd.Env = append(os.Environ(), "GOOS="+target.goos, "GOARCH="+target.goarch, "CGO_ENABLED=0")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("GOOS=%s GOARCH=%s go build: %v\n%s", target.goos, target.goarch, err, out)
		}
	}
}
