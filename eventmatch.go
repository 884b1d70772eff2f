// Package eventmatch matches heterogeneous event logs with patterns.
//
// It implements the pattern-based event matching framework of Zhu, Song,
// Wang, Yu and Sun, "Matching Heterogeneous Events with Patterns" (ICDE
// 2014 / TKDE 2017): given two event logs with opaque event names, find the
// injective mapping between their event alphabets that maximizes the
// frequency similarity of declared event patterns (SEQ/AND composite
// events), with dependency-graph vertices and edges as special patterns.
//
// The happy path is three calls:
//
//	l1, _ := eventmatch.ReadLogFile("dept1.log")
//	l2, _ := eventmatch.ReadLogFile("dept2.csv")
//	res, _ := eventmatch.Match(l1, l2, eventmatch.Config{
//		Patterns: []string{"SEQ(Receive,Approve,AND(Payment,Check))"},
//	})
//	fmt.Println(res.Pairs) // map[Receive:SD Approve:SP ...]
//
// Algorithms: the exact A* search with simple or tight score bounds
// (optimal, exponential worst case), a greedy one-expansion heuristic, and
// the advanced heuristic (pattern anchoring + Kuhn–Munkres-style
// augmentation + pattern-guided repair), plus the structure-based baselines
// from the paper's evaluation. See DESIGN.md for the full map from paper
// sections to packages.
package eventmatch

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"eventmatch/internal/baseline"
	"eventmatch/internal/event"
	"eventmatch/internal/logio"
	"eventmatch/internal/match"
	"eventmatch/internal/metrics"
	"eventmatch/internal/pattern"
	"eventmatch/internal/telemetry"
)

// Core types re-exported from the implementation packages. The aliases carry
// every method of the underlying types.
type (
	// Log is a collection of traces over an interned event alphabet.
	Log = event.Log
	// Trace is one sequence of event ids.
	Trace = event.Trace
	// EventID is a dense event identifier local to a log's alphabet.
	EventID = event.ID
	// Alphabet interns event names to ids.
	Alphabet = event.Alphabet
	// Pattern is an executable SEQ/AND event pattern bound to an alphabet.
	Pattern = pattern.Pattern
	// PatternExpr is a parsed, not-yet-bound pattern expression.
	PatternExpr = pattern.Expr
	// Mapping is an injective event mapping, indexed by L1 event id.
	Mapping = match.Mapping
	// Stats reports search effort. Stats.Truncated marks an anytime
	// (best-so-far) result; Stats.StopReason says why the run stopped.
	Stats = match.Stats
	// Quality holds precision / recall / F-measure against a ground truth.
	Quality = metrics.Quality
	// ReadOptions control fault tolerance and resource guards when reading
	// logs (lenient mode, max trace length, max input bytes).
	ReadOptions = logio.ReadOptions
	// ReadReport summarizes what a lenient read skipped.
	ReadReport = logio.ReadReport
	// TelemetryRegistry collects named counters, gauges and timers from the
	// matching pipeline. Create one with NewTelemetry, pass it through
	// Config.Telemetry (and/or ReadOptions.Telemetry), then read it back
	// with its Snapshot, WriteJSON or Summary methods.
	TelemetryRegistry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time copy of a registry's metrics;
	// Stats.Telemetry carries one per search when telemetry is enabled.
	TelemetrySnapshot = telemetry.Snapshot
)

// NewTelemetry returns an empty metrics registry ready to hand to
// Config.Telemetry or ReadOptions.Telemetry. A nil registry everywhere means
// telemetry is off and costs nothing.
func NewTelemetry() *TelemetryRegistry { return telemetry.NewRegistry() }

// Algorithm selects the matching strategy.
type Algorithm int

// Matching algorithms. The Exact variants return the optimal mapping;
// AlgoHeuristicAdvanced is the zero value and the recommended default for
// non-trivial alphabets.
const (
	// AlgoHeuristicAdvanced is the full Section 5 heuristic.
	AlgoHeuristicAdvanced Algorithm = iota
	// AlgoHeuristicSimple is the greedy one-expansion heuristic.
	AlgoHeuristicSimple
	// AlgoExact is A* over pattern normal distance with the sharp bound
	// (this implementation's strongest admissible pruning).
	AlgoExact
	// AlgoExactSimpleBound is A* with the §3.3 simple bound (for study).
	AlgoExactSimpleBound
	// AlgoVertex is the Kang–Naughton vertex-frequency baseline.
	AlgoVertex
	// AlgoVertexEdge is the Kang–Naughton vertex+edge baseline (exact A*).
	AlgoVertexEdge
	// AlgoIterative is the Nejati-style similarity-propagation baseline.
	AlgoIterative
	// AlgoEntropy is the entropy-only baseline.
	AlgoEntropy
)

func (a Algorithm) String() string {
	switch a {
	case AlgoExact:
		return "exact"
	case AlgoExactSimpleBound:
		return "exact-simple"
	case AlgoHeuristicSimple:
		return "heuristic-simple"
	case AlgoHeuristicAdvanced:
		return "heuristic-advanced"
	case AlgoVertex:
		return "vertex"
	case AlgoVertexEdge:
		return "vertex-edge"
	case AlgoIterative:
		return "iterative"
	case AlgoEntropy:
		return "entropy"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// ParseAlgorithm resolves the names printed by Algorithm.String.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a := AlgoHeuristicAdvanced; a <= AlgoEntropy; a++ {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("eventmatch: unknown algorithm %q", s)
}

// Config parameterizes Match.
type Config struct {
	// Algorithm defaults to AlgoHeuristicAdvanced.
	Algorithm Algorithm

	// Patterns are textual complex patterns over L1's event names, e.g.
	// "SEQ(A,AND(B,C),D)". They are ignored by the baseline algorithms.
	Patterns []string

	// MaxDuration caps the search wall-clock time; zero means no limit.
	// When the cap is hit the search returns its best complete mapping so
	// far with Stats.Truncated set — not an error.
	MaxDuration time.Duration

	// MaxGenerated caps how many candidate mappings the search may
	// generate; zero means no limit. Like MaxDuration, hitting the cap
	// truncates rather than fails.
	MaxGenerated int

	// MaxFrontier bounds the A* frontier (beam pruning): when the open
	// list exceeds the cap the worst nodes are discarded. Zero means no
	// bound. A pruned search still terminates with a complete mapping but
	// cannot prove optimality, so its result is marked truncated. Only the
	// exact algorithms use it.
	MaxFrontier int

	// Workers sizes the pool the search and its pattern-frequency trace
	// scans run on: the children of each A* expansion, the candidate
	// scorings of each advanced-heuristic round and large trace scans are
	// spread over this many goroutines. Every value runs the same code; 0
	// or 1 runs it on the calling goroutine, and a negative value selects
	// one worker per available CPU. The mapping and score are identical for
	// every value — candidates are laid out and selected in a fixed order —
	// so Workers trades nothing but goroutines for wall-clock time. Only
	// the pattern-based algorithms (exact, heuristics) use it.
	Workers int

	// Telemetry, when non-nil, receives fine-grained effort counters from
	// the search (A* expansions, bound evaluations, frequency-cache hits
	// and misses, worker-shard sizes, ...). The registry accumulates across
	// calls; Result.Stats.Telemetry carries a snapshot taken at the end of
	// each search. Nil (the default) disables instrumentation; the hot
	// paths then pay only an untaken nil-check. Only the pattern-based
	// algorithms (exact, heuristics) report search counters.
	Telemetry *TelemetryRegistry
}

// resolveWorkers maps the public Workers convention (negative = one per
// CPU) to the internal one (a concrete count; 0/1 = the calling goroutine).
func resolveWorkers(w int) int {
	if w < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// Result is a completed matching.
type Result struct {
	// Mapping is the id-level mapping (L1 id → L2 id).
	Mapping Mapping
	// Pairs is the name-level mapping for presentation.
	Pairs map[string]string
	// Score is the algorithm's objective value for the mapping.
	Score float64
	// Stats reports the search effort (zero for closed-form baselines).
	Stats Stats
}

// Match finds an event mapping from l1's alphabet into l2's. See
// MatchContext for the anytime/cancellation semantics.
func Match(l1, l2 *Log, cfg Config) (*Result, error) {
	return MatchContext(context.Background(), l1, l2, cfg)
}

// MatchContext is Match under a caller context. The search is anytime:
// on context cancellation or an exceeded budget (MaxDuration, MaxGenerated,
// MaxFrontier) it returns the best complete mapping found so far with
// Stats.Truncated set and Stats.StopReason naming the cause, rather than an
// error.
func MatchContext(ctx context.Context, l1, l2 *Log, cfg Config) (*Result, error) {
	if l1 == nil || l2 == nil {
		return nil, fmt.Errorf("eventmatch: nil log")
	}
	switch cfg.Algorithm {
	case AlgoVertex, AlgoIterative, AlgoEntropy:
		// The baselines take their duration budget through the context.
		bctx := ctx
		if cfg.MaxDuration > 0 {
			var cancel context.CancelFunc
			bctx, cancel = context.WithTimeout(ctx, cfg.MaxDuration)
			defer cancel()
		}
		var (
			res baseline.Result
			err error
		)
		switch cfg.Algorithm {
		case AlgoVertex:
			res, err = baseline.VertexContext(bctx, l1, l2)
		case AlgoIterative:
			res, err = baseline.IterativeContext(bctx, l1, l2, baseline.IterativeOptions{})
		case AlgoEntropy:
			res, err = baseline.EntropyContext(bctx, l1, l2)
		}
		return baselineResult(l1, l2, res, err)
	}

	mode := match.ModePattern
	if cfg.Algorithm == AlgoVertexEdge {
		mode = match.ModeVertexEdge
	}
	var bound []*Pattern
	if mode == match.ModePattern {
		var err error
		bound, err = BindPatterns(cfg.Patterns, l1.Alphabet)
		if err != nil {
			return nil, err
		}
	}
	pr, err := match.BuildProblem(l1, l2, bound, mode)
	if err != nil {
		return nil, err
	}
	opts := match.Options{
		Bound:        match.BoundSharp,
		MaxDuration:  cfg.MaxDuration,
		MaxGenerated: cfg.MaxGenerated,
		MaxFrontier:  cfg.MaxFrontier,
		Workers:      resolveWorkers(cfg.Workers),
		Telemetry:    cfg.Telemetry,
	}
	var (
		m  Mapping
		st Stats
	)
	switch cfg.Algorithm {
	case AlgoExact, AlgoVertexEdge:
		m, st, err = pr.AStarContext(ctx, opts)
	case AlgoExactSimpleBound:
		opts.Bound = match.BoundSimple
		m, st, err = pr.AStarContext(ctx, opts)
	case AlgoHeuristicSimple:
		opts.Bound = match.BoundSimple
		m, st, err = pr.GreedyExpandContext(ctx, opts)
	case AlgoHeuristicAdvanced:
		opts.Bound = match.BoundSimple
		m, st, err = pr.HeuristicAdvancedContext(ctx, opts)
	default:
		return nil, fmt.Errorf("eventmatch: unknown algorithm %v", cfg.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Mapping: m,
		Pairs:   namePairs(l1, l2, m),
		Score:   st.Score,
		Stats:   st,
	}, nil
}

func baselineResult(l1, l2 *Log, res baseline.Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &Result{
		Mapping: res.Mapping,
		Pairs:   namePairs(l1, l2, res.Mapping),
		Score:   res.Score,
		Stats: Stats{
			Elapsed:    res.Elapsed,
			Score:      res.Score,
			Truncated:  res.Truncated,
			StopReason: res.StopReason,
		},
	}, nil
}

func namePairs(l1, l2 *Log, m Mapping) map[string]string {
	out := make(map[string]string)
	for v1, v2 := range m {
		if v2 == event.None {
			continue
		}
		out[l1.Alphabet.Name(event.ID(v1))] = l2.Alphabet.Name(v2)
	}
	return out
}

// ParsePattern parses a textual pattern such as "SEQ(A,AND(B,C),D)".
func ParsePattern(s string) (*PatternExpr, error) { return pattern.Parse(s) }

// BindPatterns parses and binds textual patterns against an alphabet.
func BindPatterns(srcs []string, a *Alphabet) ([]*Pattern, error) {
	out := make([]*Pattern, 0, len(srcs))
	for i, s := range srcs {
		p, err := pattern.ParseBind(s, a)
		if err != nil {
			return nil, fmt.Errorf("eventmatch: pattern %d: %w", i, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// PatternFrequency evaluates f(p) for a textual pattern over a log.
func PatternFrequency(src string, l *Log) (float64, error) {
	p, err := pattern.ParseBind(src, l.Alphabet)
	if err != nil {
		return 0, err
	}
	return p.Frequency(l), nil
}

// Evaluate computes precision / recall / F-measure of a found mapping
// against a ground truth.
func Evaluate(found, truth Mapping) Quality { return metrics.Evaluate(found, truth) }

// LogFromStrings builds a log from whitespace-separated trace strings; handy
// for tests and examples.
func LogFromStrings(traces ...string) *Log { return event.FromStrings(traces...) }

// ReadLog parses a log from r in the named format ("log", "csv" or "xes").
func ReadLog(r io.Reader, format string) (*Log, error) { return logio.Read(r, format) }

// ReadLogWithReport parses a log from r in the named format under the given
// fault-tolerance and resource options; the report records what a lenient
// read skipped.
func ReadLogWithReport(r io.Reader, format string, opts ReadOptions) (*Log, ReadReport, error) {
	return logio.ReadWithReport(r, format, opts)
}

// WriteLog serializes a log in the named format.
func WriteLog(w io.Writer, l *Log, format string) error { return logio.Write(w, l, format) }

// ReadLogFile reads a log file, detecting the format from the extension
// (.csv, .xes/.xml, anything else = trace lines).
func ReadLogFile(path string) (*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("eventmatch: %w", err)
	}
	defer f.Close()
	return logio.Read(f, logio.DetectFormat(path))
}

// ReadLogFileReport is ReadLogFile under the given fault-tolerance and
// resource options.
func ReadLogFileReport(path string, opts ReadOptions) (*Log, ReadReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, ReadReport{}, fmt.Errorf("eventmatch: %w", err)
	}
	defer f.Close()
	return logio.ReadWithReport(f, logio.DetectFormat(path), opts)
}

// TranslateLog rewrites l2 into l1's vocabulary using a discovered mapping —
// the integration payoff of matching (the paper's intro: querying merged
// heterogeneous logs is only meaningful once events correspond). Every l2
// event that is some l1 event's image is renamed to that l1 event; l2 events
// outside the mapping's range keep their own names. The result shares no
// state with either input.
func TranslateLog(l2 *Log, m Mapping, l1 *Log) (*Log, error) {
	if l1 == nil || l2 == nil {
		return nil, fmt.Errorf("eventmatch: nil log")
	}
	// Invert the mapping: image id in l2 → source name in l1.
	inverse := make(map[EventID]string)
	for v1, v2 := range m {
		if v2 == event.None {
			continue
		}
		if int(v2) >= l2.NumEvents() {
			return nil, fmt.Errorf("eventmatch: mapping image %d outside L2's alphabet", v2)
		}
		if v1 >= l1.NumEvents() {
			return nil, fmt.Errorf("eventmatch: mapping source %d outside L1's alphabet", v1)
		}
		if _, dup := inverse[v2]; dup {
			return nil, fmt.Errorf("eventmatch: mapping not injective at target %d", v2)
		}
		inverse[v2] = l1.Alphabet.Name(EventID(v1))
	}
	out := LogFromStrings()
	for _, t := range l2.Traces {
		names := make([]string, len(t))
		for i, e := range t {
			if name, ok := inverse[e]; ok {
				names[i] = name
			} else {
				names[i] = l2.Alphabet.Name(e)
			}
		}
		out.AppendNames(names...)
	}
	return out, nil
}

// SetResult is a completed 1-to-n matching.
type SetResult struct {
	// Sets maps each L1 event name to the names of its L2 images.
	Sets map[string][]string
	// Score is the pattern normal distance under the merged-event
	// interpretation.
	Score float64
	// Stats reports the extension effort.
	Stats Stats
}

// MatchOneToN runs Match and then extends the injective result to a 1-to-n
// mapping: L2 events left unmapped are greedily merged into the L1 event
// whose combined interpretation raises the pattern normal distance — the
// paper's §8 future-work setting (one coarse L1 activity split into several
// fine-grained L2 activities). Only the pattern-based algorithms support
// the extension.
func MatchOneToN(l1, l2 *Log, cfg Config) (*SetResult, error) {
	return MatchOneToNContext(context.Background(), l1, l2, cfg)
}

// MatchOneToNContext is MatchOneToN under a caller context; both the base
// match and the extension stop early and return their best-so-far result
// (Stats.Truncated) on cancellation or budget exhaustion.
func MatchOneToNContext(ctx context.Context, l1, l2 *Log, cfg Config) (*SetResult, error) {
	if l1 == nil || l2 == nil {
		return nil, fmt.Errorf("eventmatch: nil log")
	}
	switch cfg.Algorithm {
	case AlgoVertex, AlgoIterative, AlgoEntropy:
		return nil, fmt.Errorf("eventmatch: %v does not support 1-to-n extension", cfg.Algorithm)
	}
	base, err := MatchContext(ctx, l1, l2, cfg)
	if err != nil {
		return nil, err
	}
	mode := match.ModePattern
	if cfg.Algorithm == AlgoVertexEdge {
		mode = match.ModeVertexEdge
	}
	var bound []*Pattern
	if mode == match.ModePattern {
		bound, err = BindPatterns(cfg.Patterns, l1.Alphabet)
		if err != nil {
			return nil, err
		}
	}
	pr, err := match.BuildProblem(l1, l2, bound, mode)
	if err != nil {
		return nil, err
	}
	sm, st, err := pr.ExtendOneToNContext(ctx, base.Mapping, match.Options{
		MaxDuration:  cfg.MaxDuration,
		MaxGenerated: cfg.MaxGenerated,
		Workers:      resolveWorkers(cfg.Workers),
		Telemetry:    cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	if base.Stats.Truncated && !st.Truncated {
		st.Truncated = true
		st.StopReason = base.Stats.StopReason
	}
	sets := make(map[string][]string)
	for v1, set := range sm {
		if len(set) == 0 {
			continue
		}
		names := make([]string, len(set))
		for i, v2 := range set {
			names[i] = l2.Alphabet.Name(v2)
		}
		sets[l1.Alphabet.Name(EventID(v1))] = names
	}
	return &SetResult{Sets: sets, Score: st.Score, Stats: st}, nil
}

// MergeLogs concatenates logs into one log over a shared alphabet (interning
// names in order of appearance). Use with TranslateLog to build the unified
// view of several matched sources.
func MergeLogs(logs ...*Log) (*Log, error) {
	out := LogFromStrings()
	for i, l := range logs {
		if l == nil {
			return nil, fmt.Errorf("eventmatch: log %d is nil", i)
		}
		for _, t := range l.Traces {
			names := make([]string, len(t))
			for j, e := range t {
				names[j] = l.Alphabet.Name(e)
			}
			out.AppendNames(names...)
		}
	}
	return out, nil
}
