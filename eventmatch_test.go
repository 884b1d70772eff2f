package eventmatch

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eventmatch/internal/gen"
)

// demoLogs returns two small renamed logs with known correspondence.
func demoLogs() (*Log, *Log) {
	l1 := LogFromStrings(
		"Receive Pay Check Ship",
		"Receive Check Pay Ship",
		"Receive Pay Check Ship",
	)
	l2 := LogFromStrings(
		"SD FK KC FH",
		"SD KC FK FH",
		"SD FK KC FH",
	)
	return l1, l2
}

func TestMatchDefaultAlgorithm(t *testing.T) {
	l1, l2 := demoLogs()
	res, err := Match(l1, l2, Config{Patterns: []string{"SEQ(Receive,AND(Pay,Check),Ship)"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 4 {
		t.Fatalf("pairs = %v", res.Pairs)
	}
	want := map[string]string{"Receive": "SD", "Pay": "FK", "Check": "KC", "Ship": "FH"}
	for k, v := range want {
		if res.Pairs[k] != v {
			t.Errorf("pair %s -> %s, want %s", k, res.Pairs[k], v)
		}
	}
	if res.Score <= 0 {
		t.Errorf("score = %v", res.Score)
	}
}

func TestMatchAllAlgorithmsProduceMappings(t *testing.T) {
	l1, l2 := demoLogs()
	for a := AlgoHeuristicAdvanced; a <= AlgoEntropy; a++ {
		res, err := Match(l1, l2, Config{Algorithm: a, Patterns: []string{"SEQ(Receive,AND(Pay,Check),Ship)"}})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if len(res.Pairs) != 4 {
			t.Errorf("%v: pairs = %v", a, res.Pairs)
		}
	}
}

func TestMatchExactOptimal(t *testing.T) {
	l1, l2 := demoLogs()
	exact, err := Match(l1, l2, Config{Algorithm: AlgoExact, Patterns: []string{"SEQ(Receive,AND(Pay,Check),Ship)"}})
	if err != nil {
		t.Fatal(err)
	}
	adv, err := Match(l1, l2, Config{Algorithm: AlgoHeuristicAdvanced, Patterns: []string{"SEQ(Receive,AND(Pay,Check),Ship)"}})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Score > exact.Score+1e-9 {
		t.Errorf("heuristic score %v exceeds exact optimum %v", adv.Score, exact.Score)
	}
}

func TestMatchErrors(t *testing.T) {
	l1, l2 := demoLogs()
	if _, err := Match(nil, l2, Config{}); err == nil {
		t.Error("nil l1 must fail")
	}
	if _, err := Match(l1, nil, Config{}); err == nil {
		t.Error("nil l2 must fail")
	}
	if _, err := Match(l1, l2, Config{Patterns: []string{"SEQ("}}); err == nil {
		t.Error("bad pattern must fail")
	}
	if _, err := Match(l1, l2, Config{Patterns: []string{"SEQ(Nope,Receive)"}}); err == nil {
		t.Error("unknown event in pattern must fail")
	}
	if _, err := Match(l1, l2, Config{Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm must fail")
	}
}

func TestMatchBudget(t *testing.T) {
	l1, l2 := demoLogs()
	res, err := Match(l1, l2, Config{Algorithm: AlgoExact, MaxDuration: time.Nanosecond})
	if err != nil {
		t.Fatalf("budgeted match must return best-so-far, got error: %v", err)
	}
	if !res.Stats.Truncated {
		t.Error("nanosecond budget must truncate")
	}
	if !res.Mapping.Complete() {
		t.Errorf("truncated result must still be a complete mapping: %v", res.Mapping)
	}
}

func TestAlgorithmStringRoundTrip(t *testing.T) {
	for a := AlgoHeuristicAdvanced; a <= AlgoEntropy; a++ {
		back, err := ParseAlgorithm(a.String())
		if err != nil || back != a {
			t.Errorf("round trip %v: %v %v", a, back, err)
		}
	}
	if _, err := ParseAlgorithm("nonsense"); err == nil {
		t.Error("unknown name must fail")
	}
	if got := Algorithm(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown algorithm string = %q", got)
	}
}

func TestPatternFrequency(t *testing.T) {
	l1, _ := demoLogs()
	f, err := PatternFrequency("SEQ(Receive,AND(Pay,Check),Ship)", l1)
	if err != nil {
		t.Fatal(err)
	}
	if f != 1.0 {
		t.Errorf("f = %v, want 1.0", f)
	}
	if _, err := PatternFrequency("garbage(", l1); err == nil {
		t.Error("bad pattern must fail")
	}
}

// PatternFrequency binds against the log's own alphabet; on generated
// logs it must agree with the bound pattern's Frequency.
func TestPatternFrequencyMatchesBoundPattern(t *testing.T) {
	g := gen.RealLike(5, 600)
	bound, err := BindPatterns(g.Patterns, g.L1.Alphabet)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range g.Patterns {
		got, err := PatternFrequency(src, g.L1)
		if err != nil {
			t.Fatal(err)
		}
		if want := bound[i].Frequency(g.L1); got != want {
			t.Errorf("%s: PatternFrequency = %v, bound Frequency = %v", src, got, want)
		}
		if got < 0 || got > 1 {
			t.Errorf("%s: frequency %v outside [0,1]", src, got)
		}
	}
}

func TestPatternFrequencyUnknownEvent(t *testing.T) {
	l1, _ := demoLogs()
	before := l1.Alphabet.Len()
	if _, err := PatternFrequency("SEQ(Receive,Refund)", l1); err == nil || !strings.Contains(err.Error(), "Refund") {
		t.Errorf("unknown event error = %v", err)
	}
	if l1.Alphabet.Len() != before {
		t.Errorf("alphabet grew from %d to %d events", before, l1.Alphabet.Len())
	}
}

func TestPatternFrequencyNoTraces(t *testing.T) {
	l := LogFromStrings()
	l.Alphabet.Intern("A")
	l.Alphabet.Intern("B")
	f, err := PatternFrequency("AND(A,B)", l)
	if err != nil {
		t.Fatal(err)
	}
	if f != 0 {
		t.Errorf("frequency over a log with no traces = %v, want 0", f)
	}
}

func TestEvaluateWrapper(t *testing.T) {
	m := Mapping{0, 1}
	q := Evaluate(m, m)
	if q.FMeasure != 1 {
		t.Errorf("q = %+v", q)
	}
}

func TestReadWriteLog(t *testing.T) {
	l1, _ := demoLogs()
	var buf bytes.Buffer
	if err := WriteLog(&buf, l1, "csv"); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLog(&buf, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTraces() != l1.NumTraces() {
		t.Errorf("traces = %d", back.NumTraces())
	}
}

func TestReadLogFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "demo.log")
	if err := os.WriteFile(path, []byte("A B C\nC B A\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := ReadLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumTraces() != 2 || l.NumEvents() != 3 {
		t.Errorf("log = %d traces %d events", l.NumTraces(), l.NumEvents())
	}
	if _, err := ReadLogFile(filepath.Join(dir, "missing.log")); err == nil {
		t.Error("missing file must fail")
	}
}

func TestBindPatterns(t *testing.T) {
	l1, _ := demoLogs()
	ps, err := BindPatterns([]string{"SEQ(Receive,Pay)", "AND(Pay,Check)"}, l1.Alphabet)
	if err != nil || len(ps) != 2 {
		t.Fatalf("ps=%v err=%v", ps, err)
	}
	if _, err := BindPatterns([]string{"SEQ(Receive,Zzz)"}, l1.Alphabet); err == nil {
		t.Error("unknown event must fail")
	}
}

func TestTranslateLog(t *testing.T) {
	l1, l2 := demoLogs()
	res, err := Match(l1, l2, Config{Patterns: []string{"SEQ(Receive,AND(Pay,Check),Ship)"}})
	if err != nil {
		t.Fatal(err)
	}
	translated, err := TranslateLog(l2, res.Mapping, l1)
	if err != nil {
		t.Fatal(err)
	}
	if translated.NumTraces() != l2.NumTraces() {
		t.Fatalf("traces = %d", translated.NumTraces())
	}
	// Every translated trace must now read in l1's vocabulary.
	for _, tr := range translated.Traces {
		for _, e := range tr {
			name := translated.Alphabet.Name(e)
			if l1.Alphabet.Lookup(name) == EventID(-1) {
				t.Fatalf("untranslated event %q", name)
			}
		}
	}
	// The merged log is queryable with L1 patterns across both sources.
	merged, err := MergeLogs(l1, translated)
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumTraces() != l1.NumTraces()+l2.NumTraces() {
		t.Fatalf("merged traces = %d", merged.NumTraces())
	}
	f, err := PatternFrequency("SEQ(Receive,AND(Pay,Check),Ship)", merged)
	if err != nil {
		t.Fatal(err)
	}
	if f != 1.0 {
		t.Errorf("merged pattern frequency = %v, want 1.0", f)
	}
}

func TestTranslateLogKeepsUnmappedNames(t *testing.T) {
	l1 := LogFromStrings("A", "A")
	l2 := LogFromStrings("x y", "x y") // y has no source event
	m := Mapping{0}                    // A -> x
	translated, err := TranslateLog(l2, m, l1)
	if err != nil {
		t.Fatal(err)
	}
	got := translated.Traces[0].String(translated.Alphabet)
	if got != "<A y>" {
		t.Errorf("trace = %s, want <A y>", got)
	}
}

func TestTranslateLogErrors(t *testing.T) {
	l1 := LogFromStrings("A")
	l2 := LogFromStrings("x")
	if _, err := TranslateLog(nil, Mapping{0}, l1); err == nil {
		t.Error("nil l2 must fail")
	}
	if _, err := TranslateLog(l2, Mapping{9}, l1); err == nil {
		t.Error("out-of-range image must fail")
	}
	if _, err := TranslateLog(l2, Mapping{0, 0}, l1); err == nil {
		t.Error("non-injective mapping must fail")
	}
	if _, err := TranslateLog(l2, Mapping{0, 0}, nil); err == nil {
		t.Error("nil l1 must fail")
	}
}

func TestMergeLogsErrors(t *testing.T) {
	if _, err := MergeLogs(LogFromStrings("A"), nil); err == nil {
		t.Error("nil log must fail")
	}
	merged, err := MergeLogs()
	if err != nil || merged.NumTraces() != 0 {
		t.Errorf("empty merge: %v %v", merged, err)
	}
}

func TestMatchOneToN(t *testing.T) {
	l1 := LogFromStrings(
		"Receive Pay Ship",
		"Receive Pay Ship",
		"Receive Pay Ship",
		"Receive Pay Ship",
	)
	l2 := LogFromStrings(
		"SD CASH FH",
		"SD CARD FH",
		"SD CASH FH",
		"SD CARD FH",
	)
	res, err := MatchOneToN(l1, l2, Config{Patterns: []string{"SEQ(Receive,Pay,Ship)"}})
	if err != nil {
		t.Fatal(err)
	}
	pay := res.Sets["Pay"]
	if len(pay) != 2 {
		t.Fatalf("Pay images = %v, want 2", pay)
	}
	found := map[string]bool{}
	for _, n := range pay {
		found[n] = true
	}
	if !found["CASH"] || !found["CARD"] {
		t.Errorf("Pay -> %v, want CASH and CARD", pay)
	}
	if _, err := MatchOneToN(l1, l2, Config{Algorithm: AlgoVertex}); err == nil {
		t.Error("vertex baseline must reject 1-to-n")
	}
	if _, err := MatchOneToN(nil, l2, Config{}); err == nil {
		t.Error("nil log must fail")
	}
}

// Acceptance: the exact matcher under a 50ms wall-clock budget on a
// workload its search cannot close (30 events) returns a complete
// best-so-far mapping marked truncated, instead of failing.
func TestMatchExactAnytimeUnderBudget(t *testing.T) {
	g := gen.LargeSynthetic(7, 3, 300)
	res, err := Match(g.L1, g.L2, Config{
		Algorithm:   AlgoExact,
		Patterns:    g.Patterns,
		MaxDuration: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("budgeted exact match failed: %v", err)
	}
	if res == nil || res.Mapping == nil {
		t.Fatal("budgeted exact match returned no mapping")
	}
	if !res.Mapping.Complete() {
		t.Errorf("best-so-far mapping incomplete: %v", res.Mapping)
	}
	if !res.Stats.Truncated {
		// 50ms cannot close a 30-event exact search.
		t.Errorf("expected truncation, stats = %+v", res.Stats)
	}
	if res.Stats.StopReason == "" {
		t.Error("truncated result must name its stop reason")
	}
}

// On the paper's 11-event real-like workload the exact search with the sharp
// bound closes in well under 50ms, so a budgeted run there must finish
// untruncated and optimal — the budget only bites when genuinely needed.
func TestMatchExactRealLikeClosesUnderBudget(t *testing.T) {
	g := gen.RealLike(7, 800)
	res, err := Match(g.L1, g.L2, Config{
		Algorithm:   AlgoExact,
		Patterns:    g.Patterns,
		MaxDuration: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Truncated {
		t.Errorf("real-like exact search should close within budget: %+v", res.Stats)
	}
	if !res.Mapping.Complete() {
		t.Errorf("mapping incomplete: %v", res.Mapping)
	}
}

// Acceptance: a canceled context stops any algorithm promptly with a
// best-so-far result.
func TestMatchContextCanceledStopsQuickly(t *testing.T) {
	g := gen.RealLike(7, 800)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []Algorithm{
		AlgoExact, AlgoHeuristicSimple, AlgoHeuristicAdvanced,
		AlgoVertex, AlgoIterative, AlgoEntropy,
	} {
		start := time.Now()
		res, err := MatchContext(ctx, g.L1, g.L2, Config{Algorithm: algo, Patterns: g.Patterns})
		elapsed := time.Since(start)
		if err != nil {
			t.Errorf("%v: canceled match errored: %v", algo, err)
			continue
		}
		if !res.Stats.Truncated {
			t.Errorf("%v: canceled match not marked truncated: %+v", algo, res.Stats)
		}
		if elapsed > time.Second {
			t.Errorf("%v: canceled match ran %v", algo, elapsed)
		}
		if res.Mapping == nil {
			t.Errorf("%v: canceled match returned no mapping", algo)
		}
	}
}

func TestMatchMaxGeneratedTruncates(t *testing.T) {
	l1, l2 := demoLogs()
	res, err := Match(l1, l2, Config{Algorithm: AlgoExact, MaxGenerated: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated || res.Stats.StopReason == "" {
		t.Errorf("stats = %+v, want truncation with reason", res.Stats)
	}
}

func TestReadLogWithReportLenient(t *testing.T) {
	in := "case,activity\nc1,A\nbadrow\nc1,B\n"
	l, rep, err := ReadLogWithReport(strings.NewReader(in), "csv", ReadOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumTraces() != 1 || rep.SkippedRows != 1 {
		t.Errorf("traces=%d skipped=%d", l.NumTraces(), rep.SkippedRows)
	}
}

func TestReadLogFileReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.csv")
	if err := os.WriteFile(path, []byte("c1,A\nc1\nc1,B\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadLogFileReport(path, ReadOptions{}); err == nil {
		t.Error("strict read of corrupt file must fail")
	}
	l, rep, err := ReadLogFileReport(path, ReadOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumTraces() != 1 || rep.SkippedRows != 1 {
		t.Errorf("traces=%d skipped=%d", l.NumTraces(), rep.SkippedRows)
	}
	if _, _, err := ReadLogFileReport(filepath.Join(dir, "missing.csv"), ReadOptions{}); err == nil {
		t.Error("missing file must fail")
	}
}
