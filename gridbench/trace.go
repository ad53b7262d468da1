package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one call the benchmark made into a layer: its name, the workload
// call it belongs to (every span of one call shares Call), its parent span
// (-1 for the call's root) and its start and end on the tracer's clock.
type span struct {
	Call   int64  `json:"call"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory while a traced run lasts; write dumps them
// once the run is over. A nil *tracer records nothing, so untraced code
// paths call it unconditionally.
type tracer struct {
	t0    time.Time
	call  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// root opens the root span of a new workload call and returns its id.
func (t *tracer) root(name string) int32 {
	if t == nil {
		return -1
	}
	t.call++
	return t.open(-1, name)
}

func (t *tracer) open(parent int32, name string) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Call: t.call, ID: id, Parent: parent, Name: name, Start: t.now()})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.now()
}

// do runs f inside a child span of parent named after the layer function
// it calls.
func (t *tracer) do(parent int32, name string, f func() error) error {
	if t == nil {
		return f()
	}
	id := t.open(parent, name)
	err := f()
	t.end(id)
	return err
}

// layerStat is one span name's aggregate: how often it ran and the median
// of its total and self time (total minus the time its children cover).
type layerStat struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	TotalP50 float64 `json:"total_p50_us"`
	SelfP50  float64 `json:"self_p50_us"`
}

// stats aggregates the recorded spans by name.
func (t *tracer) stats() map[string]layerStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	total := map[string][]float64{}
	self := map[string][]float64{}
	for i, s := range t.spans {
		d := float64(s.End-s.Start) / 1e3
		total[s.Name] = append(total[s.Name], d)
		self[s.Name] = append(self[s.Name], d-float64(child[i])/1e3)
	}
	out := map[string]layerStat{}
	for name, v := range total {
		out[name] = layerStat{Name: name, Count: len(v), TotalP50: median(v), SelfP50: median(self[name])}
	}
	return out
}

// durations returns the total times of the spans named name, in µs.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write dumps the spans as JSON lines, followed by one summary line per
// span name, into path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, st := range t.stats() {
		if err := enc.Encode(map[string]layerStat{"summary": st}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
