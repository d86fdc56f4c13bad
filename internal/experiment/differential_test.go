package experiment

// The engine-level differential suite: the goldens under testdata/ are
// the literal bytes `msched -repeat -json` wrote BEFORE the hot-path
// refactor (PR 4's allocation-free event queue, memoized ledger, FIFO
// rewrite, planner and validator changes). Reproducing them byte for
// byte through the optimized path — at several worker counts — proves
// the overhaul changed no decision, no metric, and no recorded bit,
// including under failure scenarios with re-dispatch. cmd/msched's
// TestGoldensThroughRun replays the same comparison through the command.

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/runner"
)

// goldenCases mirror the exact msched invocations that produced the
// testdata files (see CHANGES.md PR 4):
//
//	msched -algo LS -class heterogeneous -n 150 -repeat 8 -scenario failures -json golden_msched_scenario.json
//	msched -algo SLJFWC -class comp-homogeneous -n 200 -repeat 6 -json golden_msched_static.json
var goldenCases = []struct {
	file   string
	repeat int
	opts   ReplicateOptions
}{
	{
		file:   "golden_msched_scenario.json",
		repeat: 8,
		opts: ReplicateOptions{
			Algo: "LS", Class: "heterogeneous", M: 5, Seed: 1,
			N: 150, Arrival: "bag", Rate: 1,
			Scenario: "failures", Intensity: 1,
		},
	},
	{
		file:   "golden_msched_static.json",
		repeat: 6,
		opts: ReplicateOptions{
			Algo: "SLJFWC", Class: "comp-homogeneous", M: 5, Seed: 1,
			N: 200, Arrival: "bag", Rate: 1,
		},
	},
}

func TestGoldenReplicatesByteIdentical(t *testing.T) {
	for _, tc := range goldenCases {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		for _, workers := range []int{1, 4} {
			res, err := Replicates(tc.repeat, workers, tc.opts)
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", tc.file, workers, err)
			}
			got, err := runner.EncodeJSON(res)
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", tc.file, workers, err)
			}
			if string(got) != string(want) {
				t.Errorf("%s (workers=%d): optimized engine diverged from the pre-refactor golden bytes\ngot %d bytes, want %d",
					tc.file, workers, len(got), len(want))
			}
		}
	}
}
