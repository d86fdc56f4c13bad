package masterslave

import (
	"os"
	"regexp"
	"testing"
)

// TestGoVersionStatedOnce pins the one statement of the supported Go
// floor: go.mod's go directive, README's "Requires Go ≥" line and the
// first entry of CI's test matrix name the same version.
func TestGoVersionStatedOnce(t *testing.T) {
	floor := func(file, pattern string) string {
		t.Helper()
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		m := regexp.MustCompile(pattern).FindSubmatch(b)
		if m == nil {
			t.Fatalf("%s: no match for %s", file, pattern)
		}
		return string(m[1])
	}
	mod := floor("go.mod", `(?m)^go (\d+\.\d+)`)
	readme := floor("README.md", `Requires Go ≥ (\d+\.\d+)`)
	matrix := floor(".github/workflows/ci.yml", `go: \["(\d+\.\d+)"`)
	if mod != readme || mod != matrix {
		t.Fatalf("go.mod says %s, README %s, the CI matrix starts at %s", mod, readme, matrix)
	}
}
