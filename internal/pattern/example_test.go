package pattern_test

import (
	"context"
	"fmt"

	"eventmatch/internal/event"
	"eventmatch/internal/pattern"
	"eventmatch/internal/telemetry"
)

// Parsing is separate from binding: a pattern file is parsed once into
// name-based expressions and then bound to each log's alphabet.
func ExampleParse() {
	expr, err := pattern.Parse("SEQ(Receive, AND(Payment, Check), Ship)")
	if err != nil {
		panic(err)
	}
	fmt.Println(expr)

	l := event.FromStrings(
		"Receive Payment Check Ship",
		"Receive Check Payment Ship",
		"Receive Ship",
	)
	p, err := expr.Bind(l.Alphabet)
	if err != nil {
		panic(err)
	}
	fmt.Printf("f(p) = %.2f\n", p.Frequency(l))
	// Output:
	// SEQ(Receive,AND(Payment,Check),Ship)
	// f(p) = 0.67
}

// The Engine evaluates the same frequencies at every worker count, with
// the trace scan sharded across a worker pool; partial counts are integers
// merged by summation, so the result is bit-identical for every worker
// count.
func ExampleEngine() {
	l := event.FromStrings(
		"A D B C",
		"C A D B",
		"A D",
		"B C",
	)
	ix := pattern.NewTraceIndex(l)
	p := pattern.MustSeq(pattern.Single(l.Alphabet.Lookup("A")), pattern.Single(l.Alphabet.Lookup("D")))

	eng := pattern.NewEngine(ix, 4)
	f, err := eng.FrequencyContext(context.Background(), p)
	if err != nil {
		panic(err)
	}
	fmt.Printf("parallel   f(SEQ(A,D)) = %.2f\n", f)
	fmt.Printf("sequential f(SEQ(A,D)) = %.2f\n", pattern.NewEngine(ix, 1).Frequency(p))
	// Output:
	// parallel   f(SEQ(A,D)) = 0.75
	// sequential f(SEQ(A,D)) = 0.75
}

// When a pattern's events never co-occur in any trace, the ∩It(v) bitset
// intersection comes up empty and the engine resolves f(p) = 0 from the
// index alone — no trace is scanned. The pattern.index_skips counter
// records each evaluation resolved this way.
func ExampleEngine_indexOnlySkip() {
	l := event.FromStrings(
		"A B",
		"C D",
		"A D",
	)
	ix := pattern.NewTraceIndex(l)
	// B and C never appear in the same trace.
	p := pattern.MustSeq(
		pattern.Single(l.Alphabet.Lookup("B")),
		pattern.Single(l.Alphabet.Lookup("C")),
	)

	eng := pattern.NewEngine(ix, 1)
	reg := telemetry.NewRegistry()
	eng.SetTelemetry(reg)

	fmt.Printf("f(SEQ(B,C)) = %.2f\n", eng.Frequency(p))
	snap := reg.Snapshot()
	fmt.Printf("index skips    = %d\n", snap.Counter("pattern.index_skips"))
	fmt.Printf("traces scanned = %d\n", snap.Counter("engine.traces_scanned"))
	// Output:
	// f(SEQ(B,C)) = 0.00
	// index skips    = 1
	// traces scanned = 0
}
