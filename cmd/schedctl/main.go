// Command schedctl is the operator's CLI for the scheduling daemon: it
// inspects a live schedd over HTTP or a flight recording on disk, and
// exports recordings to analysis formats. All HTTP goes through the
// typed client (pkg/schedclient), which targets the versioned /v1 API.
//
// Subcommands:
//
//	schedctl top    [-addr URL]                 one-shot cluster overview from GET /v1/stats
//	schedctl tail   [-addr URL | -dir DIR] [-n N]
//	                                            follow the live /v1/watch event stream, or
//	                                            print a recording's events
//	schedctl export [-addr URL | -dir DIR] -format perfetto|gantt|jsonl [-o FILE] [-width N]
//	                                            convert a recording (live GET /v1/flight or
//	                                            on-disk segments) to Chrome trace-event
//	                                            JSON (load in Perfetto / chrome://tracing),
//	                                            per-shard Gantt timelines, or JSON lines
//	schedctl slo    [-addr URL]                 burn-rate report from GET /v1/slo; exits 1
//	                                            when any objective is burning (the CI gate)
//
// -dir reads seg-*.flight segments written by schedd -record-dir and
// needs no running daemon; -addr (default http://127.0.0.1:8080) talks
// to a live one.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs/flight"
	"repro/internal/schedd"
	"repro/internal/textplot"
	"repro/pkg/schedclient"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "schedctl: want a subcommand: top, tail, export, slo")
		return 2
	}
	var err error
	switch args[0] {
	case "top":
		err = cmdTop(args[1:], stdout)
	case "tail":
		err = cmdTail(args[1:], stdout, stderr)
	case "export":
		err = cmdExport(args[1:], stdout, stderr)
	case "slo":
		var breached bool
		breached, err = cmdSLO(args[1:], stdout)
		if err == nil && breached {
			return 1
		}
	default:
		err = fmt.Errorf("unknown subcommand %q: want top, tail, export or slo", args[0])
	}
	if err != nil {
		fmt.Fprintln(stderr, "schedctl:", err)
		return 1
	}
	return 0
}

// loadRecording reads a flight recording from -dir (on-disk segments)
// or, when dir is empty, from the live daemon's GET /v1/flight. A torn
// recording — the directory a kill -9 leaves, a cut-off download — is not
// fatal: the warning goes to stderr and everything up to the last
// complete frame is returned.
func loadRecording(dir, addr string, stderr io.Writer) (rec *flight.Recording, err error) {
	if dir != "" {
		rec, err = flight.ReadDir(dir)
	} else {
		var raw []byte
		if raw, err = schedclient.New(addr).Flight(); err != nil {
			return nil, err
		}
		rec, err = flight.Parse(raw)
	}
	if errors.Is(err, flight.ErrTruncated) {
		fmt.Fprintln(stderr, "schedctl: warning:", err)
		err = nil
	}
	return rec, err
}

func cmdTop(args []string, stdout io.Writer) error {
	fs := newFlagSet("top")
	addr := fs.String("addr", "http://127.0.0.1:8080", "schedd address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stats, err := schedclient.New(*addr).Stats()
	if err != nil {
		return err
	}
	renderTop(stdout, stats)
	return nil
}

// renderTop prints the one-shot cluster overview: a summary header and
// one table row per shard.
func renderTop(w io.Writer, stats schedd.StatsResponse) {
	fmt.Fprintf(w, "policy %s  shards %d  slaves %d  placement %s  clock x%g  uptime %.1fs",
		stats.Policy, stats.Shards, stats.Slaves, stats.Placement, stats.ClockScale, stats.UptimeSeconds)
	if stats.Draining {
		fmt.Fprint(w, "  DRAINING")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "jobs: submitted %d  completed %d  stolen %d  throughput %.2f/s\n",
		stats.Jobs.Submitted, stats.Jobs.Completed, stats.Jobs.Stolen, stats.ThroughputJobsPerSec)
	if l := stats.LatencySeconds; l != nil {
		fmt.Fprintf(w, "latency: mean %.4fs  p50 %.4fs  p95 %.4fs  p99 %.4fs\n", l.Mean, l.P50, l.P95, l.P99)
	}
	if r := stats.Recorder; r != nil {
		fmt.Fprintf(w, "flight: %d frames  %d segments (%d dropped, %d unwritten)\n", r.Frames, r.Segments, r.SegmentsDropped, r.SegmentsUnwritten)
	}
	rows := make([][]string, 0, len(stats.PerShard))
	for _, sec := range stats.PerShard {
		p50 := "-"
		if sec.LatencySeconds != nil {
			p50 = fmt.Sprintf("%.4f", sec.LatencySeconds.P50)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", sec.Shard),
			fmt.Sprintf("%d", len(sec.Slaves)),
			fmt.Sprintf("%d", sec.Jobs.Submitted),
			fmt.Sprintf("%d", sec.Jobs.Completed),
			fmt.Sprintf("%d", sec.QueueDepth),
			p50,
		})
	}
	fmt.Fprint(w, textplot.Table(
		[]string{"shard", "slaves", "submitted", "completed", "queue", "p50s"}, rows))
}

func cmdTail(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("tail")
	addr := fs.String("addr", "http://127.0.0.1:8080", "schedd address")
	dir := fs.String("dir", "", "read a recording directory instead of the live stream")
	n := fs.Int("n", 0, "newest n events with -dir, or stop after n live events (0: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir != "" {
		rec, err := loadRecording(*dir, "", stderr)
		if err != nil {
			return err
		}
		return tailRecording(stdout, rec, *n)
	}
	ws, err := schedclient.New(*addr).Watch(context.Background(), *n)
	if err != nil {
		return err
	}
	defer ws.Close()
	for {
		line, err := ws.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
}

// tailRecording prints a recording's events as JSON lines, newest last.
func tailRecording(w io.Writer, rec *flight.Recording, n int) error {
	events := rec.Events()
	if n > 0 && len(events) > n {
		events = events[len(events)-n:]
	}
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(schedd.WatchEvent{
			T:     ev.Event.T,
			Shard: ev.Shard,
			Kind:  ev.Event.Kind.String(),
			Task:  ev.Event.Task,
			Slave: ev.Event.Slave,
		}); err != nil {
			return err
		}
	}
	return nil
}

func cmdExport(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("export")
	addr := fs.String("addr", "http://127.0.0.1:8080", "schedd address")
	dir := fs.String("dir", "", "read a recording directory instead of the live daemon")
	format := fs.String("format", "perfetto", "output format: perfetto, gantt, jsonl")
	out := fs.String("o", "", "output file (default stdout)")
	width := fs.Int("width", 100, "gantt width in characters")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := loadRecording(*dir, *addr, stderr)
	if err != nil {
		return err
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return exportRecording(w, rec, *format, *width)
}

// exportRecording writes rec in the named format.
func exportRecording(w io.Writer, rec *flight.Recording, format string, width int) error {
	switch format {
	case "perfetto":
		return flight.WritePerfetto(w, rec)
	case "gantt":
		return flight.WriteGantt(w, rec, width)
	case "jsonl":
		return flight.WriteJSONL(w, rec)
	}
	return fmt.Errorf("unknown format %q: want perfetto, gantt or jsonl", format)
}

func cmdSLO(args []string, stdout io.Writer) (breached bool, err error) {
	fs := newFlagSet("slo")
	addr := fs.String("addr", "http://127.0.0.1:8080", "schedd address")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	resp, err := schedclient.New(*addr).SLO()
	if err != nil {
		return false, err
	}
	return renderSLO(stdout, resp), nil
}

// renderSLO prints the burn-rate report and reports whether any
// objective is burning (burn rate above 1 on any window).
func renderSLO(w io.Writer, resp schedd.SLOResponse) (breached bool) {
	if !resp.Enabled {
		fmt.Fprintln(w, "no SLO objectives configured (start schedd with -slo)")
		return false
	}
	var rows [][]string
	for _, st := range resp.Objectives {
		if !st.OK {
			breached = true
		}
		for _, b := range st.Windows {
			status := "ok"
			if !b.OK {
				status = "BURNING"
			}
			rows = append(rows, []string{
				st.Objective.Name,
				st.Objective.Kind,
				fmt.Sprintf("%.4f", st.Objective.Target),
				fmt.Sprintf("%.0fs", b.WindowSeconds),
				fmt.Sprintf("%d/%d", b.Good, b.Total),
				fmt.Sprintf("%.3f", b.BurnRate),
				status,
			})
		}
	}
	fmt.Fprint(w, textplot.Table(
		[]string{"objective", "kind", "target", "window", "good/total", "burn", "status"}, rows))
	return breached
}

// newFlagSet builds a subcommand flag set that returns parse errors
// instead of exiting, so run() owns the process exit code.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet("schedctl "+name, flag.ContinueOnError)
}
