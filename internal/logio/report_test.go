package logio

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"eventmatch/internal/telemetry"
)

func TestReadCSVStrictFirstErrorHasLine(t *testing.T) {
	cases := []struct {
		name string
		in   string
		line int
	}{
		{"wrong field count", "c1,A\nc1,B,extra\nc1,C\n", 2},
		{"empty activity", "case,activity\nc1,A\nc1,\n", 3},
		{"bare quote", "c1,A\nc1,\"B\nc1,C\n", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadCSVReport(strings.NewReader(tc.in), ReadOptions{})
			if err == nil {
				t.Fatal("strict mode must fail")
			}
			if want := fmt.Sprintf("line %d", tc.line); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not locate %q", err, want)
			}
		})
	}
}

func TestLenientReports(t *testing.T) {
	cases := []struct {
		name          string
		format        string
		in            string
		opts          ReadOptions
		traces        int
		skippedRows   int
		skippedTraces int
		minErrors     int
	}{
		{
			name:        "csv truncated row",
			format:      FormatCSV,
			in:          "case,activity\nc1,A\nc1\nc1,B\nc2,X,Y\nc2,Z\n",
			opts:        ReadOptions{Lenient: true},
			traces:      2,
			skippedRows: 2,
			minErrors:   2,
		},
		{
			name:        "csv bare quote keeps other rows",
			format:      FormatCSV,
			in:          "c1,A\nc1,\"B\nc1,C\n",
			opts:        ReadOptions{Lenient: true},
			traces:      1,
			skippedRows: 1,
			minErrors:   1,
		},
		{
			name:          "csv oversized case dropped whole",
			format:        FormatCSV,
			in:            "c1,A\nc1,B\nc1,C\nc2,X\n",
			opts:          ReadOptions{Lenient: true, MaxTraceLen: 2},
			traces:        1,
			skippedTraces: 1,
			minErrors:     1,
		},
		{
			name:        "xes bad nesting",
			format:      FormatXES,
			in:          `<log><event><string key="concept:name" value="X"/></event><trace><event><string key="concept:name" value="A"/></event></trace></log>`,
			opts:        ReadOptions{Lenient: true},
			traces:      1,
			skippedRows: 1,
			minErrors:   1,
		},
		{
			name:        "xes missing concept:name",
			format:      FormatXES,
			in:          `<log><trace><event><string key="other" value="x"/></event><event><string key="concept:name" value="B"/></event></trace></log>`,
			opts:        ReadOptions{Lenient: true},
			traces:      1,
			skippedRows: 1,
			minErrors:   1,
		},
		{
			name:          "xes oversized trace",
			format:        FormatXES,
			in:            `<log><trace><event><string key="concept:name" value="A"/></event><event><string key="concept:name" value="B"/></event></trace><trace><event><string key="concept:name" value="C"/></event></trace></log>`,
			opts:          ReadOptions{Lenient: true, MaxTraceLen: 1},
			traces:        1,
			skippedTraces: 1,
			minErrors:     1,
		},
		{
			name:          "xes truncated document keeps prefix",
			format:        FormatXES,
			in:            `<log><trace><event><string key="concept:name" value="A"/></event></trace><trace><event>`,
			opts:          ReadOptions{Lenient: true},
			traces:        1,
			skippedTraces: 1,
			minErrors:     1,
		},
		{
			name:          "trace lines oversized trace",
			format:        FormatTraceLines,
			in:            "A B C\nD E\n",
			opts:          ReadOptions{Lenient: true, MaxTraceLen: 2},
			traces:        1,
			skippedTraces: 1,
			minErrors:     1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, rep, err := ReadWithReport(strings.NewReader(tc.in), tc.format, tc.opts)
			if err != nil {
				t.Fatalf("lenient read failed: %v", err)
			}
			if l.NumTraces() != tc.traces || rep.Traces != tc.traces {
				t.Errorf("traces = %d (report %d), want %d", l.NumTraces(), rep.Traces, tc.traces)
			}
			if rep.SkippedRows != tc.skippedRows {
				t.Errorf("SkippedRows = %d, want %d", rep.SkippedRows, tc.skippedRows)
			}
			if rep.SkippedTraces != tc.skippedTraces {
				t.Errorf("SkippedTraces = %d, want %d", rep.SkippedTraces, tc.skippedTraces)
			}
			if rep.ErrorCount < tc.minErrors || len(rep.Errors) < tc.minErrors {
				t.Errorf("ErrorCount = %d, Errors = %v, want at least %d", rep.ErrorCount, rep.Errors, tc.minErrors)
			}
		})
	}
}

// Acceptance: a CSV log with ~10% corrupt rows still parses the healthy
// traces in lenient mode, and every skip is accounted for.
func TestLenientCSVTenPercentCorrupt(t *testing.T) {
	var b strings.Builder
	b.WriteString("case,activity\n")
	goodRows := 0
	for c := 1; c <= 30; c++ {
		for e := 0; e < 10; e++ {
			if (c*10+e)%10 == 3 { // every 10th row corrupted
				b.WriteString(fmt.Sprintf("c%d\n", c)) // missing activity column
				continue
			}
			b.WriteString(fmt.Sprintf("c%d,E%d\n", c, e))
			goodRows++
		}
	}
	l, rep, err := ReadCSVReport(strings.NewReader(b.String()), ReadOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumTraces() != 30 {
		t.Errorf("traces = %d, want 30", l.NumTraces())
	}
	total := 0
	for _, tr := range l.Traces {
		total += len(tr)
	}
	if total != goodRows {
		t.Errorf("events = %d, want %d", total, goodRows)
	}
	if rep.SkippedRows != 30 {
		t.Errorf("SkippedRows = %d, want 30", rep.SkippedRows)
	}
	// Strict mode must reject the same input.
	if _, _, err := ReadCSVReport(strings.NewReader(b.String()), ReadOptions{}); err == nil {
		t.Error("strict mode must fail on corrupt rows")
	}
}

func TestMaxErrorsCapsRetentionNotCount(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 20; i++ {
		b.WriteString("c1\n") // every row malformed
	}
	_, rep, err := ReadCSVReport(strings.NewReader(b.String()), ReadOptions{Lenient: true, MaxErrors: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 5 {
		t.Errorf("retained %d errors, want 5", len(rep.Errors))
	}
	if rep.ErrorCount != 20 {
		t.Errorf("ErrorCount = %d, want 20", rep.ErrorCount)
	}
}

func TestMaxLogBytes(t *testing.T) {
	in := "A B\nC D\nE F\n"
	// Strict: exceeding the cap is an error identifying the cause.
	_, _, err := ReadTraceLinesReport(strings.NewReader(in), ReadOptions{MaxLogBytes: 5})
	if !errors.Is(err, ErrLogTooLarge) {
		t.Errorf("err = %v, want ErrLogTooLarge", err)
	}
	// Lenient: the complete traces before the cap survive.
	l, rep, err := ReadTraceLinesReport(strings.NewReader(in), ReadOptions{MaxLogBytes: 5, Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumTraces() != 1 {
		t.Errorf("traces = %d, want 1", l.NumTraces())
	}
	if rep.ErrorCount == 0 {
		t.Error("byte-limit hit must be recorded")
	}
	// An unhit cap changes nothing.
	l, rep, err = ReadTraceLinesReport(strings.NewReader(in), ReadOptions{MaxLogBytes: 1 << 20})
	if err != nil || l.NumTraces() != 3 || rep.ErrorCount != 0 {
		t.Errorf("unhit cap: traces=%d errs=%d err=%v", l.NumTraces(), rep.ErrorCount, err)
	}
	// CSV honours the cap too.
	_, _, err = ReadCSVReport(strings.NewReader("c1,A\nc1,B\n"), ReadOptions{MaxLogBytes: 3})
	if err == nil {
		t.Error("strict csv over cap must fail")
	}
}

// TestMaxLogBytesBoundary pins the byte limit at its edge in every format,
// strict and lenient: an input of exactly MaxLogBytes bytes reads whole,
// one byte less is too large, and logio.bytes counts only delivered bytes.
func TestMaxLogBytesBoundary(t *testing.T) {
	inputs := []struct{ format, src string }{
		{FormatCSV, "c1,A\nc1,B\n"},
		{FormatTraceLines, "A B\n"},
		{FormatXES, `<log><trace><event><string key="concept:name" value="A"/></event></trace></log>`},
	}
	for _, in := range inputs {
		n := int64(len(in.src))
		for _, limit := range []int64{n - 1, n, n + 1} {
			for _, lenient := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/len%+d/lenient=%v", in.format, limit-n, lenient), func(t *testing.T) {
					reg := telemetry.NewRegistry()
					opts := ReadOptions{Lenient: lenient, MaxLogBytes: limit, Telemetry: reg}
					_, rep, err := ReadWithReport(strings.NewReader(in.src), in.format, opts)
					over := limit < n
					switch {
					case !lenient && over && !errors.Is(err, ErrLogTooLarge):
						t.Errorf("err = %v, want ErrLogTooLarge", err)
					case !lenient && !over && err != nil:
						t.Errorf("err = %v, want none", err)
					case lenient && err != nil:
						t.Errorf("lenient err = %v", err)
					case lenient && (rep.ErrorCount > 0) != over:
						t.Errorf("lenient ErrorCount = %d (%v), want a byte-limit error only over the limit", rep.ErrorCount, rep.Errors)
					case !over && rep.Traces != 1:
						t.Errorf("traces = %d, want 1", rep.Traces)
					}
					want := n
					if over {
						want = limit
					}
					if snap := reg.Snapshot(); snap.Counter("logio.bytes") != want {
						t.Errorf("logio.bytes = %d, want %d", snap.Counter("logio.bytes"), want)
					}
				})
			}
		}
	}
}

// TestReadTraceLinesCountsLines pins the logio.lines counter to the lines
// the reader actually read — the empty read that reports EOF after a final
// newline is not a line — and the line numbers of the parse errors.
func TestReadTraceLinesCountsLines(t *testing.T) {
	cases := []struct {
		name       string
		in         string
		opts       ReadOptions
		lines      int64
		errorLines []int
	}{
		{name: "terminated", in: "A B\nB A\n", lines: 2},
		{name: "unterminated", in: "A B\nB A", lines: 2},
		{name: "empty", in: "", lines: 0},
		{name: "comment and blank line", in: "# header\n\nA B\n", lines: 3},
		{name: "oversized trace", in: "A B C\nD E\n", opts: ReadOptions{Lenient: true, MaxTraceLen: 2}, lines: 2, errorLines: []int{1}},
		// The byte limit cuts line 2 short: it is reported, not read.
		{name: "byte limit", in: "A B\nC D\nE F\n", opts: ReadOptions{Lenient: true, MaxLogBytes: 5}, lines: 1, errorLines: []int{2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			opts := tc.opts
			opts.Telemetry = reg
			_, rep, err := ReadTraceLinesReport(strings.NewReader(tc.in), opts)
			if err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			if got := snap.Counter("logio.lines"); got != tc.lines {
				t.Errorf("logio.lines = %d, want %d", got, tc.lines)
			}
			var errorLines []int
			for _, pe := range rep.Errors {
				errorLines = append(errorLines, pe.Line)
			}
			if !reflect.DeepEqual(errorLines, tc.errorLines) {
				t.Errorf("ParseError lines = %v, want %v", errorLines, tc.errorLines)
			}
		})
	}
}

func TestParseErrorString(t *testing.T) {
	cases := map[string]ParseError{
		"line 3: boom":           {Line: 3, Trace: -1, Msg: "boom"},
		"line 3 (trace 1): boom": {Line: 3, Trace: 1, Msg: "boom"},
		"trace 1: boom":          {Trace: 1, Msg: "boom"},
		"boom":                   {Trace: -1, Msg: "boom"},
	}
	for want, pe := range cases {
		if got := pe.Error(); got != want {
			t.Errorf("ParseError %+v = %q, want %q", pe, got, want)
		}
	}
}
