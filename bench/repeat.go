package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json -check-repeat reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// worsening is how much worse b is than a as a share of a, for a metric
// where better is "lower" or "higher"; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// repeatRuns is how many runs of a workload one set of -check-repeat takes
// the median of. A single run lands in a slow mode about one time in ten
// on a shared two-core machine (loopback round trips 40 % slower for the
// whole run); the driver compares medians of ten runs, and comparing
// single runs would raise that alarm one time in five.
const repeatRuns = 5

// runInOwnProcess runs one workload untraced the way the driver does — in
// a process of its own, so no run inherits the heap another left behind —
// and returns the result line it printed.
func runInOwnProcess(o options, workload string) (resultLine, error) {
	var res resultLine
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", "0"}
	if o.short {
		args = append(args, "-short")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}

// checkRepeat measures the full untraced set twice — each set the median
// of repeatRuns runs per workload — and compares every end-to-end metric
// of every workload against its own bound in BENCHMARK.json, in both
// directions: two sets of runs of the same code must agree. It returns the
// process exit code.
func checkRepeat(o options, ws []workloadSpec) int {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatal(fmt.Errorf("-check-repeat reads the bounds from BENCHMARK.json in the working directory: %w", err))
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fatal(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	sets := make([]map[string]map[string]float64, 2)
	failed := 0
	for i := range sets {
		sets[i] = map[string]map[string]float64{}
		for _, w := range ws {
			runs := map[string][]float64{}
			for k := 0; k < repeatRuns; k++ {
				res, err := runInOwnProcess(o, w.name)
				if err != nil {
					fatal(err)
				}
				failed += res.Failed
				for name, m := range res.Metrics {
					runs[name] = append(runs[name], m.Value)
				}
			}
			sets[i][w.name] = map[string]float64{}
			for name, vs := range runs {
				sets[i][w.name][name] = median(vs)
			}
		}
	}
	offenders := 0
	for _, w := range ws {
		for _, m := range bf.EndToEnd {
			a, b := sets[0][w.name][m.Name], sets[1][w.name][m.Name]
			worse := max(worsening(a, b, m.Better), worsening(b, a, m.Better))
			verdict := "ok"
			if worse > m.Bound {
				verdict = "DIFFERS"
				offenders++
			}
			fmt.Fprintf(os.Stderr, "%-18s %-14s %14.4f %14.4f  apart %5.1f%%, bound %3.0f%%  %s\n",
				w.name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	if offenders > 0 || failed > 0 {
		fmt.Fprintf(os.Stderr, "# check-repeat: %d metrics differ by more than their bound, %d oracle failures\n", offenders, failed)
		return 1
	}
	fmt.Fprintln(os.Stderr, "# check-repeat: every end-to-end metric repeats within its bound")
	return 0
}
