package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around the
// public function it calls. Spans of one op share Op; Parent is the id of the
// enclosing span (0 for the op span itself).
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s Span) ms() float64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced ops pay one nil check per span.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its id.
func (t *Tracer) Begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: float64(now) / 1e6, End: -1,
	})
	return len(t.spans)
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = float64(now) / 1e6
	t.mu.Unlock()
}

// Spans returns the closed spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes the spans as JSON.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// SpanStats aggregates spans by name.
type SpanStats struct {
	// Total and Self are summed durations in ms; Self excludes the parts of
	// each span that its child spans cover.
	Total, Self map[string]float64
	// Count is the number of spans per name.
	Count map[string]int
	// Coverage is, over the op spans (those named opName), the share of
	// their time covered by their direct children.
	Coverage float64
	// Ops is the number of op spans.
	Ops int
}

// aggregate computes per-name totals, self times and the op coverage.
func aggregate(spans []Span, opName string) SpanStats {
	st := SpanStats{Total: map[string]float64{}, Self: map[string]float64{}, Count: map[string]int{}}
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var opTime, opCovered float64
	for _, s := range spans {
		covered := covered(s, children[s.ID])
		st.Total[s.Name] += s.ms()
		st.Self[s.Name] += s.ms() - covered
		st.Count[s.Name]++
		if s.Name == opName {
			st.Ops++
			opTime += s.ms()
			opCovered += covered
		}
	}
	st.Coverage = ratio(opCovered, opTime)
	return st
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent Span, kids []Span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi float64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	return sum + curHi - curLo
}
