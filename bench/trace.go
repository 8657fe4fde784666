package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a module's public API, recorded from the
// benchmark's own files. Parent indexes the enclosing span in the trace
// (-1 for a root); Op is the timed op the span belongs to (-1 for a layer
// probe, which belongs to no op).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// tracer keeps spans in memory; nothing is written until the run ends.
// A nil *tracer records nothing, so the same call sites serve the
// untraced pass. It is used from the generator goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of unfinished span indexes
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// do runs fn inside a span called name.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op})
	t.open = append(t.open, idx)
	t.spans[idx].StartNS = time.Since(t.t0).Nanoseconds()
	fn()
	t.spans[idx].EndNS = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// adopt appends the spans a traced block recorded in its own process:
// their times move by shift (when the block was started, on this tracer's
// clock), their parents by the spans already here, their ops by firstOp.
func (t *tracer) adopt(spans []span, shift int64, firstOp int) {
	base := len(t.spans)
	for _, s := range spans {
		s.StartNS += shift
		s.EndNS += shift
		if s.Parent >= 0 {
			s.Parent += base
		}
		if s.Op >= 0 {
			s.Op += firstOp
		}
		t.spans = append(t.spans, s)
	}
}

// selfTimes returns each span's duration minus the part its child spans
// cover, in nanoseconds, indexed like t.spans.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// perOp sums span self time by name within each op and returns, per name,
// one total per op that recorded it.
func (t *tracer) perOp() map[string][]float64 {
	self := t.selfTimes()
	sums := map[int]map[string]float64{}
	for i, s := range t.spans {
		if s.Op < 0 {
			continue
		}
		if sums[s.Op] == nil {
			sums[s.Op] = map[string]float64{}
		}
		sums[s.Op][s.Name] += float64(self[i])
	}
	out := map[string][]float64{}
	for _, byName := range sums {
		for name, ns := range byName {
			out[name] = append(out[name], ns)
		}
	}
	return out
}

// probeSelf returns the self times of the probe spans (those outside any
// op) called name.
func (t *tracer) probeSelf(name string) []float64 {
	self := t.selfTimes()
	var out []float64
	for i, s := range t.spans {
		if s.Op < 0 && s.Name == name {
			out = append(out, float64(self[i]))
		}
	}
	return out
}

// traceFile is the document written at exit.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
