package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldensThroughRun replays the engine's differential goldens
// through the command: the -repeat -json record msched writes, at one
// worker and at four, is byte-identical to the bytes the pre-refactor
// engine wrote (internal/experiment's TestGoldenReplicatesByteIdentical
// holds the same comparison below the flags and the file writer).
func TestGoldensThroughRun(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"golden_msched_scenario.json", []string{"-algo", "LS", "-class", "heterogeneous", "-n", "150", "-repeat", "8", "-scenario", "failures"}},
		{"golden_msched_static.json", []string{"-algo", "SLJFWC", "-class", "comp-homogeneous", "-n", "200", "-repeat", "6"}},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiment", "testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []string{"1", "4"} {
			path := filepath.Join(t.TempDir(), "out.json")
			if err := run(append(tc.args, "-parallel", workers, "-json", path), io.Discard, io.Discard); err != nil {
				t.Fatalf("%s -parallel %s: %v", tc.golden, workers, err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s -parallel %s: %d bytes differ from the %d golden bytes", tc.golden, workers, len(got), len(want))
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-algo", "FIFO"},
		{"-scenario", "meteor"},
		{"-repeat", "4", "-gantt"},
		{"-scenario", "failures", "-intensity", "0"},
		{"-c", "NaN,1", "-p", "1,1"},
		{"-no-such-flag"},
	} {
		err := run(args, io.Discard, io.Discard)
		if err == nil {
			t.Fatalf("run(%q) succeeded", args)
		}
		// Only a flag the FlagSet rejects (and has reported) is a usage error.
		if errors.Is(err, errUsage) != (args[0] == "-no-such-flag") {
			t.Fatalf("run(%q) = %v: usage error %v", args, err, errors.Is(err, errUsage))
		}
	}
}
