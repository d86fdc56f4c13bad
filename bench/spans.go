package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one harness-side interval around a call into a layer. Spans are
// recorded only from the benchmark's own files: internal/* carries no
// instrumentation, so the tree is as deep as the harness's own call
// nesting. Parent is the ID (1-based index) of the enclosing span, 0 for a
// root.
type Span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	RunID    string `json:"run_id"`
}

// tracer collects spans in memory; a nil tracer records nothing, which is
// how untraced runs pay nothing for the instrumentation points.
type tracer struct {
	workload string
	runID    string
	t0       time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer(workload string, seed int64) *tracer {
	return &tracer{workload: workload, runID: fmt.Sprintf("%s-seed%d", workload, seed), t0: time.Now()}
}

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		Name: name, Layer: layer, Workload: t.workload,
		StartNS: now, Parent: parent, RunID: t.runID,
	})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (two connections sending at once), so the covered part is the union of
// the child intervals clipped to the parent.
func selfTimes(spans []Span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent > 0 {
			children[s.Parent-1] = append(children[s.Parent-1], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, edge), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// layerSelf sums self time by layer, in seconds.
func layerSelf(spans []Span) map[string]float64 {
	out := map[string]float64{}
	for i, ns := range selfTimes(spans) {
		out[spans[i].Layer] += float64(ns) / 1e9
	}
	return out
}

// write stores the spans as one JSON document under dir and returns the
// file's path.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	type spanOut struct {
		Span
		SelfNS int64 `json:"self_ns"`
	}
	out := make([]spanOut, len(t.spans))
	for i, s := range t.spans {
		out[i] = spanOut{Span: s, SelfNS: self[i]}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.runID+".spans.json")
	return path, os.WriteFile(path, data, 0o644)
}
