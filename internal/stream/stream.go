// Package stream detects event-pattern instances online, one event at a
// time — the complex-event-processing view of the paper's Definition 4. A
// pattern instance is a contiguous window of the stream that is one of the
// pattern's allowed orderings, so detection needs only a sliding buffer of
// the last |p| events per pattern.
//
// The detector underlies streaming frequency estimation (feeding matcher
// problems from live systems instead of log files) and is cross-checked
// against the batch matcher in tests: counting traces with at least one
// online occurrence must equal pattern.Frequency.
package stream

import (
	"fmt"

	"eventmatch/internal/event"
	"eventmatch/internal/pattern"
)

// Occurrence reports one completed pattern instance.
type Occurrence struct {
	Pattern    int // index into the detector's pattern list
	Start, End int // stream positions (inclusive) of the instance window
}

// Detector matches a fixed set of patterns against an event stream.
type Detector struct {
	patterns []*pattern.Pattern
	maxSize  int
	buf      []event.ID // ring buffer of the last maxSize events
	pos      int        // total events observed since the last Reset
	matched  []bool     // per-pattern: at least one occurrence since Reset
}

// NewDetector builds a detector for the given patterns. At least one
// pattern is required.
func NewDetector(patterns []*pattern.Pattern) (*Detector, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("stream: no patterns")
	}
	maxSize := 0
	for i, p := range patterns {
		if p == nil {
			return nil, fmt.Errorf("stream: pattern %d is nil", i)
		}
		if p.Size() > maxSize {
			maxSize = p.Size()
		}
	}
	return &Detector{
		patterns: patterns,
		maxSize:  maxSize,
		buf:      make([]event.ID, 0, maxSize),
		matched:  make([]bool, len(patterns)),
	}, nil
}

// Observe feeds the next event and returns the occurrences completed by it
// (at most one per pattern). The returned slice is valid until the next
// call.
func (d *Detector) Observe(e event.ID) []Occurrence {
	if len(d.buf) < d.maxSize {
		d.buf = append(d.buf, e)
	} else {
		copy(d.buf, d.buf[1:])
		d.buf[d.maxSize-1] = e
	}
	d.pos++
	var out []Occurrence
	for pi, p := range d.patterns {
		k := p.Size()
		if len(d.buf) < k {
			continue
		}
		window := d.buf[len(d.buf)-k:]
		if p.MatchesWindow(window) {
			d.matched[pi] = true
			out = append(out, Occurrence{Pattern: pi, Start: d.pos - k, End: d.pos - 1})
		}
	}
	return out
}

// Reset clears the window and per-trace match flags — call it at trace
// boundaries.
func (d *Detector) Reset() {
	d.buf = d.buf[:0]
	d.pos = 0
	for i := range d.matched {
		d.matched[i] = false
	}
}

// Frequencies replays a log through the detector and returns each pattern's
// normalized frequency — the streaming counterpart of pattern.Frequency.
func (d *Detector) Frequencies(l *event.Log) []float64 {
	counts := make([]int, len(d.patterns))
	for _, t := range l.Traces {
		d.Reset()
		for _, e := range t {
			d.Observe(e)
		}
		for pi := range d.patterns {
			if d.matched[pi] {
				counts[pi]++
			}
		}
	}
	d.Reset()
	out := make([]float64, len(counts))
	if l.NumTraces() == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(l.NumTraces())
	}
	return out
}
