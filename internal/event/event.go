// Package event defines the fundamental vocabulary of the matcher: events,
// traces, and event logs, together with an interning alphabet that maps
// opaque event names to dense integer ids.
//
// All higher layers (dependency graphs, patterns, matchers) operate on the
// dense ids; names only matter at the I/O boundary. This mirrors the paper's
// setting where event names are opaque strings ("FH", "3", ...) whose text
// carries no matching signal.
package event

import (
	"fmt"
	"sort"
	"strings"

	"eventmatch/internal/telemetry"
)

// ID is a dense event identifier local to one Alphabet. IDs are assigned
// consecutively from 0 in order of interning.
type ID int

// None is the zero-information event id, returned by lookups that fail.
const None ID = -1

// Alphabet interns event names to dense ids. The zero value is ready to use.
type Alphabet struct {
	names []string
	ids   map[string]ID
}

// NewAlphabet returns an alphabet pre-populated with the given names, interned
// in order.
func NewAlphabet(names ...string) *Alphabet {
	a := &Alphabet{}
	for _, n := range names {
		a.Intern(n)
	}
	return a
}

// Intern returns the id for name, assigning a fresh one on first use.
func (a *Alphabet) Intern(name string) ID {
	if id, ok := a.ids[name]; ok {
		return id
	}
	if a.ids == nil {
		a.ids = make(map[string]ID)
	}
	id := ID(len(a.names))
	a.names = append(a.names, name)
	a.ids[name] = id
	return id
}

// Lookup returns the id for name, or None if it has never been interned.
func (a *Alphabet) Lookup(name string) ID {
	if id, ok := a.ids[name]; ok {
		return id
	}
	return None
}

// Name returns the name for id. It panics if id was never assigned.
func (a *Alphabet) Name(id ID) string {
	return a.names[id]
}

// Len reports the number of interned events.
func (a *Alphabet) Len() int { return len(a.names) }

// Names returns a copy of all interned names in id order.
func (a *Alphabet) Names() []string {
	out := make([]string, len(a.names))
	copy(out, a.names)
	return out
}

// Trace is a finite sequence of events ordered by occurrence timestamp.
type Trace []ID

// Contains reports whether the trace contains event v.
func (t Trace) Contains(v ID) bool {
	for _, e := range t {
		if e == v {
			return true
		}
	}
	return false
}

// Clone returns a copy of the trace.
func (t Trace) Clone() Trace {
	out := make(Trace, len(t))
	copy(out, t)
	return out
}

// String renders the trace with the given alphabet, e.g. "<A B C D>".
func (t Trace) String(a *Alphabet) string {
	var b strings.Builder
	b.WriteByte('<')
	for i, e := range t {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.Name(e))
	}
	b.WriteByte('>')
	return b.String()
}

// Log is a collection of traces over a shared alphabet.
type Log struct {
	Alphabet *Alphabet
	Traces   []Trace
}

// NewLog returns an empty log over a fresh alphabet.
func NewLog() *Log {
	return &Log{Alphabet: NewAlphabet()}
}

// FromNames builds a log from traces given as event-name sequences, interning
// names in order of first appearance.
func FromNames(traces ...[]string) *Log {
	l := NewLog()
	for _, tr := range traces {
		t := make(Trace, len(tr))
		for i, n := range tr {
			t[i] = l.Alphabet.Intern(n)
		}
		l.Traces = append(l.Traces, t)
	}
	return l
}

// FromStrings builds a log from whitespace-separated trace strings, e.g.
// FromStrings("A B C D", "A C B D").
func FromStrings(traces ...string) *Log {
	split := make([][]string, len(traces))
	for i, s := range traces {
		split[i] = strings.Fields(s)
	}
	return FromNames(split...)
}

// Append adds a trace to the log. The trace must use ids from l.Alphabet.
func (l *Log) Append(t Trace) { l.Traces = append(l.Traces, t) }

// AppendNames interns the given names and appends the resulting trace.
func (l *Log) AppendNames(names ...string) {
	t := make(Trace, len(names))
	for i, n := range names {
		t[i] = l.Alphabet.Intern(n)
	}
	l.Append(t)
}

// Delta describes one appended trace in the form the incremental index
// layer consumes: which trace arrived, which distinct events it touches,
// and which event ids the append interned for the first time. Consumers
// (pattern.TraceIndex.Apply, pattern.FrequencyCache.Invalidate) use it to
// update derived state without a from-scratch rebuild.
type Delta struct {
	// TraceIndex is the position the trace was appended at.
	TraceIndex int
	// Trace is the appended trace itself.
	Trace Trace
	// Events holds the trace's distinct events in first-occurrence order.
	Events []ID
	// NewEvents holds the ids this append interned into the alphabet,
	// in ascending order. Empty when every event was already known.
	NewEvents []ID
}

// AppendDelta appends t and returns the delta describing the append.
func (l *Log) AppendDelta(t Trace) Delta {
	l.Traces = append(l.Traces, t)
	return Delta{TraceIndex: len(l.Traces) - 1, Trace: t, Events: t.distinct()}
}

// AppendNamesDelta interns the given names, appends the resulting trace and
// returns the delta, including any ids the append added to the alphabet.
func (l *Log) AppendNamesDelta(names ...string) Delta {
	before := ID(l.Alphabet.Len())
	t := make(Trace, len(names))
	for i, n := range names {
		t[i] = l.Alphabet.Intern(n)
	}
	d := l.AppendDelta(t)
	for id := before; id < ID(l.Alphabet.Len()); id++ {
		d.NewEvents = append(d.NewEvents, id)
	}
	return d
}

// distinct returns the trace's distinct events in first-occurrence order.
// Traces are short relative to alphabets, so the quadratic scan beats a map.
func (t Trace) distinct() []ID {
	out := make([]ID, 0, len(t))
	for _, e := range t {
		seen := false
		for _, s := range out {
			if s == e {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, e)
		}
	}
	return out
}

// NumTraces reports the number of traces in the log.
func (l *Log) NumTraces() int { return len(l.Traces) }

// NumEvents reports the size of the log's alphabet.
func (l *Log) NumEvents() int { return l.Alphabet.Len() }

// TotalLength reports the total number of event occurrences across traces.
func (l *Log) TotalLength() int {
	n := 0
	for _, t := range l.Traces {
		n += len(t)
	}
	return n
}

// Project returns a new log restricted to the first k events of the alphabet
// (by id order): every trace is filtered to events with id < k, empty traces
// are dropped. This is exactly how the paper's experiments vary "event set
// size" ("projecting the first x events appearing in the dataset").
func (l *Log) Project(k int) *Log {
	if k < 0 {
		k = 0
	}
	if k > l.Alphabet.Len() {
		k = l.Alphabet.Len()
	}
	out := &Log{Alphabet: NewAlphabet(l.Alphabet.names[:k]...)}
	for _, t := range l.Traces {
		var nt Trace
		for _, e := range t {
			if int(e) < k {
				nt = append(nt, e)
			}
		}
		if len(nt) > 0 {
			out.Traces = append(out.Traces, nt)
		}
	}
	return out
}

// ProjectSet returns a new log restricted to the given events, renumbered so
// that ids[k] becomes event k of the new log. Traces are filtered to the kept
// events; empty traces are dropped. Duplicate or out-of-range ids are an
// error. This supports experiment setups that must project two logs onto
// corresponding event subsets.
func (l *Log) ProjectSet(ids []ID) (*Log, error) {
	remap := make(map[ID]ID, len(ids))
	out := &Log{Alphabet: NewAlphabet()}
	for k, id := range ids {
		if id < 0 || int(id) >= l.Alphabet.Len() {
			return nil, fmt.Errorf("event: ProjectSet: id %d outside alphabet of size %d", id, l.Alphabet.Len())
		}
		if _, dup := remap[id]; dup {
			return nil, fmt.Errorf("event: ProjectSet: duplicate id %d", id)
		}
		remap[id] = ID(k)
		out.Alphabet.Intern(l.Alphabet.Name(id))
	}
	for _, t := range l.Traces {
		var nt Trace
		for _, e := range t {
			if ne, ok := remap[e]; ok {
				nt = append(nt, ne)
			}
		}
		if len(nt) > 0 {
			out.Traces = append(out.Traces, nt)
		}
	}
	return out, nil
}

// Head returns a new log containing only the first n traces (sharing the
// alphabet), matching the paper's "selecting the first y traces" setup.
func (l *Log) Head(n int) *Log {
	if n > len(l.Traces) {
		n = len(l.Traces)
	}
	if n < 0 {
		n = 0
	}
	return &Log{Alphabet: l.Alphabet, Traces: l.Traces[:n]}
}

// Validate checks internal consistency: every event id in every trace must be
// within the alphabet.
func (l *Log) Validate() error {
	if l.Alphabet == nil {
		return fmt.Errorf("event: log has nil alphabet")
	}
	n := ID(l.Alphabet.Len())
	for i, t := range l.Traces {
		for j, e := range t {
			if e < 0 || e >= n {
				return fmt.Errorf("event: trace %d position %d: id %d outside alphabet of size %d", i, j, e, n)
			}
		}
	}
	return nil
}

// Stats summarizes an event log.
type Stats struct {
	Traces      int
	Events      int     // alphabet size
	Occurrences int     // total event occurrences
	MinLen      int     // shortest trace
	MaxLen      int     // longest trace
	MeanLen     float64 // average trace length
}

// Summarize computes log statistics in one pass.
func (l *Log) Summarize() Stats {
	s := Stats{Traces: len(l.Traces), Events: l.Alphabet.Len()}
	if len(l.Traces) == 0 {
		return s
	}
	s.MinLen = len(l.Traces[0])
	for _, t := range l.Traces {
		n := len(t)
		s.Occurrences += n
		if n < s.MinLen {
			s.MinLen = n
		}
		if n > s.MaxLen {
			s.MaxLen = n
		}
	}
	s.MeanLen = float64(s.Occurrences) / float64(s.Traces)
	return s
}

// RegisterTelemetry publishes the log's shape under the given prefix as
// func gauges (prefix.traces, prefix.events, prefix.occurrences) evaluated
// lazily at snapshot time, so a metrics dump self-describes the workload it
// measured. No-op on a nil registry. The log must not be mutated while the
// registry can still snapshot it.
func (l *Log) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	reg.RegisterFunc(prefix+".traces", func() int64 { return int64(len(l.Traces)) })
	reg.RegisterFunc(prefix+".events", func() int64 { return int64(l.Alphabet.Len()) })
	reg.RegisterFunc(prefix+".occurrences", func() int64 {
		var n int64
		for _, t := range l.Traces {
			n += int64(len(t))
		}
		return n
	})
}

// Frequency returns, for each event id, the fraction of traces containing it
// at least once — the paper's normalized vertex frequency f(v,v).
func (l *Log) Frequency() []float64 {
	nEvents := l.Alphabet.Len()
	freq := make([]float64, nEvents)
	if len(l.Traces) == 0 {
		return freq
	}
	counts := make([]int, nEvents)
	seen := make([]bool, nEvents)
	for _, t := range l.Traces {
		clear(seen)
		for _, e := range t {
			if !seen[e] {
				seen[e] = true
				counts[e]++
			}
		}
	}
	inv := 1 / float64(len(l.Traces))
	for i, c := range counts {
		freq[i] = float64(c) * inv
	}
	return freq
}

// SortedNames returns the alphabet names in lexicographic order; useful for
// deterministic output in tools and tests.
func (l *Log) SortedNames() []string {
	names := l.Alphabet.Names()
	sort.Strings(names)
	return names
}
