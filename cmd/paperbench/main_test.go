package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/runner"
)

// TestParallelDeterminism pins the -parallel contract through the
// command: the -json report is identical at one worker and at four,
// except for each "meta" stanza (workers and wall time).
func TestParallelDeterminism(t *testing.T) {
	var canon [2][]byte
	for i, workers := range []string{"1", "4"} {
		path := filepath.Join(t.TempDir(), "report.json")
		args := []string{"-experiment", "fig1d", "-platforms", "6", "-tasks", "300", "-parallel", workers, "-json", path}
		if err := run(args, io.Discard, io.Discard); err != nil {
			t.Fatalf("-parallel %s: %v", workers, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep runner.Report
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != 1 || len(rep.Results[0].Cells) == 0 || rep.Meta == nil {
			t.Fatalf("-parallel %s: report %s", workers, b)
		}
		if canon[i], err = runner.EncodeJSON(rep.Canonical()); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(canon[0], canon[1]) {
		t.Fatal("-parallel 1 and -parallel 4 reports differ outside \"meta\"")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "fig9"},
		{"-classes", "hyper-homogeneous"},
		{"-schedulers", "FIFO"},
		{"-experiment", "fig1a", "-classes", "heterogeneous"},
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
