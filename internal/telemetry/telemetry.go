// Package telemetry is a dependency-free, race-clean instrumentation layer
// for the matching pipeline: atomic counters, monotonic timers with span
// accounting, gauges with high-watermark tracking, lazily evaluated function
// gauges, and a named Registry that exports everything as a JSON snapshot or
// an expvar variable.
//
// The package is built around two properties the hot paths need:
//
//   - Near-zero overhead when disabled. Every metric method is a no-op on a
//     nil receiver, and a nil *Registry hands out nil metrics, so code can be
//     instrumented unconditionally:
//
//     var reg *telemetry.Registry // nil: telemetry off
//     c := reg.Counter("astar.expanded") // c is nil
//     c.Inc()                            // no-op, no allocation
//
//   - Race-cleanliness. All mutation goes through sync/atomic; the registry
//     map is guarded by a mutex that is only touched at metric-resolution
//     time (once per search, not per event). Snapshots can be taken
//     concurrently with updates from any number of goroutines.
//
// Counter values are monotone sums, Gauge values are last-written levels
// (with an optional high-watermark via SetMax), and Timers accumulate
// span count + total nanoseconds. Func gauges are read at snapshot time,
// letting subsystems expose derived values (cache sizes, shard imbalance)
// without a write on every operation.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. All methods are
// no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n may be any sign, but counters are conventionally monotone).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous level. All methods are no-ops on a nil
// receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current level.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// SetMax raises the gauge to n if n exceeds the current level — a lock-free
// high-watermark (e.g. peak frontier size).
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current level (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Timer accumulates the count and total wall-clock duration of completed
// spans. All methods are no-ops on a nil receiver.
type Timer struct {
	count atomic.Int64
	ns    atomic.Int64
}

// Span is one in-flight timed region started by Timer.Start.
type Span struct {
	t     *Timer
	start time.Time
}

// Start opens a span. Safe on a nil receiver: the returned span's Stop is a
// no-op.
func (t *Timer) Start() Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, start: time.Now()}
}

// Stop closes the span, adding its elapsed time to the timer. Stopping a
// zero Span is a no-op; Stop must be called at most once per span.
func (s Span) Stop() {
	if s.t == nil {
		return
	}
	s.t.count.Add(1)
	s.t.ns.Add(int64(time.Since(s.start)))
}

// Observe records one completed span of duration d directly.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.count.Add(1)
	t.ns.Add(int64(d))
}

// Value returns the completed span count and total duration.
func (t *Timer) Value() (count int64, total time.Duration) {
	if t == nil {
		return 0, 0
	}
	return t.count.Load(), time.Duration(t.ns.Load())
}

// TimerValue is a Timer's state inside a Snapshot.
type TimerValue struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
}

// Snapshot is a point-in-time copy of a registry's metrics, grouped by
// metric kind and keyed by metric name. It marshals to stable JSON
// (encoding/json sorts map keys), so snapshots diff and golden-test cleanly.
type Snapshot struct {
	Counters map[string]int64      `json:"counters,omitempty"`
	Gauges   map[string]int64      `json:"gauges,omitempty"`
	Timers   map[string]TimerValue `json:"timers,omitempty"`
}

// Counter returns the named counter's value (0 when absent, or on a nil
// snapshot — e.g. Stats.Telemetry of an uninstrumented run). Convenience for
// assertions and progress lines.
func (s *Snapshot) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// Gauge returns the named gauge's value (0 when absent or on a nil snapshot).
func (s *Snapshot) Gauge(name string) int64 {
	if s == nil {
		return 0
	}
	return s.Gauges[name]
}

// Timer returns the named timer's span count and total duration (zero when
// absent or on a nil snapshot).
func (s *Snapshot) Timer(name string) (count int64, total time.Duration) {
	if s == nil {
		return 0, 0
	}
	tv := s.Timers[name]
	return tv.Count, time.Duration(tv.TotalNs)
}

// Registry is a named collection of metrics. The zero value is ready to use;
// a nil *Registry hands out nil metrics whose methods are all no-ops, so
// instrumented code never needs an enabled-check.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	funcs    map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.timers == nil {
		r.timers = make(map[string]*Timer)
	}
	t := r.timers[name]
	if t == nil {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// RegisterFunc registers a gauge whose value is computed by fn at snapshot
// time — for derived values (cache entry counts, shard imbalance) that would
// otherwise need a write per operation. fn must be safe for concurrent
// invocation; registering the same name again replaces the function. No-op
// on a nil registry.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.funcs == nil {
		r.funcs = make(map[string]func() int64)
	}
	r.funcs[name] = fn
}

// Snapshot copies every metric's current value. Func gauges are evaluated
// here (outside the registry lock, so a func gauge may itself resolve
// metrics) and land in Gauges alongside the stored ones. Safe to call
// concurrently with updates; returns an empty snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Timers:   map[string]TimerValue{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, t := range r.timers {
		count, total := t.Value()
		snap.Timers[name] = TimerValue{Count: count, TotalNs: int64(total)}
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for name, fn := range r.funcs {
		funcs[name] = fn
	}
	r.mu.Unlock()
	for name, fn := range funcs {
		snap.Gauges[name] = fn()
	}
	return snap
}

// WriteJSON writes the current snapshot as indented JSON (with a trailing
// newline) to w. Works on a nil registry (writes an empty snapshot).
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}

// Summary renders the snapshot as a single "k=v k=v ..." line with names
// sorted, counters and gauges only — the progress-line format. Timers are
// rendered as name.ms with millisecond totals. Empty on a nil snapshot.
func (s *Snapshot) Summary() string {
	if s == nil {
		return ""
	}
	type kv struct {
		k string
		v int64
	}
	items := make([]kv, 0, len(s.Counters)+len(s.Gauges)+len(s.Timers))
	for k, v := range s.Counters {
		items = append(items, kv{k, v})
	}
	for k, v := range s.Gauges {
		items = append(items, kv{k, v})
	}
	for k, v := range s.Timers {
		items = append(items, kv{k + ".ms", v.TotalNs / 1e6})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].k < items[j].k })
	buf := make([]byte, 0, 32*len(items))
	for i, it := range items {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, it.k...)
		buf = append(buf, '=')
		buf = appendInt(buf, it.v)
	}
	return string(buf)
}

func appendInt(b []byte, v int64) []byte {
	if v == 0 {
		return append(b, '0')
	}
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}
