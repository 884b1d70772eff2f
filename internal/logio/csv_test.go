package logio

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"eventmatch/internal/gen"
	"eventmatch/internal/telemetry"
)

// csvParityDiff reads src with ReadCSVReport and readCSVReference under the
// same options and describes the first difference in the alphabet (names in
// id order), traces, report, error text or ingestion counters; "" when the
// two agree.
func csvParityDiff(src string, opts ReadOptions) string {
	gotOpts, wantOpts := opts, opts
	gotOpts.Telemetry, wantOpts.Telemetry = telemetry.NewRegistry(), telemetry.NewRegistry()
	got, gotRep, gotErr := ReadCSVReport(strings.NewReader(src), gotOpts)
	want, wantRep, wantErr := readCSVReference(strings.NewReader(src), wantOpts)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(gotRep, wantRep) {
		return fmt.Sprintf("report %+v, reference %+v", gotRep, wantRep)
	}
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("log %v, reference %v", got, want)
	}
	if got != nil {
		if g, w := got.Alphabet.Names(), want.Alphabet.Names(); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("alphabet %q, reference %q", g, w)
		}
		if !reflect.DeepEqual(got.Traces, want.Traces) {
			return fmt.Sprintf("traces %v, reference %v", got.Traces, want.Traces)
		}
	}
	if g, w := gotOpts.Telemetry.Snapshot(), wantOpts.Telemetry.Snapshot(); !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("telemetry %+v, reference %+v", g, w)
	}
	return ""
}

// parityOptions spans strict and lenient mode with each guard in play.
var parityOptions = []ReadOptions{
	{},
	{Lenient: true},
	{MaxTraceLen: 2},
	{Lenient: true, MaxTraceLen: 2},
	{MaxLogBytes: 24},
	{Lenient: true, MaxLogBytes: 24},
	{Lenient: true, MaxErrors: 1},
	{Lenient: true, MaxTraceLen: 1, MaxLogBytes: 40, MaxErrors: 2},
}

func TestReadCSVParity(t *testing.T) {
	inputs := []struct{ name, src string }{
		{"empty", ""},
		{"header only", "case,activity\n"},
		{"interleaved with header", "case,activity\nc1,A\nc2,B\nc1,B\nc3,C\nc2,A\nc1,A\n"},
		{"interleaved without header", "c2,B\nc1,A\nc2,A\nc1,C\n"},
		{"case order differs from name order", "c1,A\nc2,B\nc1,C\nc2,A\n"},
		{"header spelled loosely", " CASE ,Activity\nc1,A\n"},
		{"padded fields", " c1 , A \nc1,  B\n  c2,A  \nc2 ,B\n"},
		{"quoted comma and newline", "c1,\"A,B\"\nc1,\"multi\nline\"\n\"c2\",A\n\"c1\",\"A,B\"\n"},
		{"crlf", "case,activity\r\nc1,A\r\nc1,B\r\nc2,C\r\nc2,\"x\r\ny\"\r\n"},
		{"bare quote", "c1,A\nc1,B\"x\nc1,C\n"},
		{"unterminated quote", "c1,A\nc1,\"B\nc1,C\n"},
		{"header after a bad first row", "a\"b,c\ncase,activity\nc1,A\n"},
		{"wrong field counts", "c1,A,extra\nc1\nc1,B\nc2,C,D,E\n"},
		{"empty case or activity", "c1,\n,A\n  ,B\nc1,C\n\"\",D\n"},
		{"long cases", "c1,A\nc1,B\nc1,C\nc2,A\nc1,D\nc2,B\nc3,E\nc2,F\n"},
		{"many bad rows", "c1,A\nx\ny,z,w\n,\nc1,B\nq\n"},
		{"unicode names", "c1,Überweisung\nc1,發票\nc2,發票\n"},
		{"no trailing newline", "c1,A\nc1,B"},
		{"line longer than the read buffer", "c1,A\nc1," + strings.Repeat("x", 5000) + "\n" + strings.Repeat("y", 4500) + ",B\nc1,C\n"},
		{"quoted field across the read buffer", strings.Repeat("c1,A\n", 817) + "c1,\"" + strings.Repeat("q", 30) + "\"\"\nq\"\nc2,B\n"},
		{"bare cr inside a field", "c1,A\rB\nc1,\"C\rD\"\nc1,E\n"},
		{"bare cr before eof", "c1,A\nc1,B\r"},
		{"blank crlf lines", "\r\n\r\ncase,activity\r\n\r\nc1,A\r\n\r\n\r\nc1,B\r\n"},
		{"trailing comma", "case,activity,\nc1,A,\nc1,B\nc2,\n"},
		{"quoted header", "\"case\",activity\nc1,A\n"},
		{"quoted first field across lines", "c0,A\n\"c\n1\",B\n\"c\n1\",C\n\"c\n2\",D,E\n\"c\n3\",F\"x\n\"c\n1\",\"G\n"},
	}
	for _, in := range inputs {
		for _, opts := range parityOptions {
			t.Run(fmt.Sprintf("%s/%+v", in.name, opts), func(t *testing.T) {
				if d := csvParityDiff(in.src, opts); d != "" {
					t.Errorf("%q: %s", in.src, d)
				}
			})
		}
	}
}

// TestReadCSVParityRandom compares the readers on generated CSV built from
// well-formed, padded, quoted, empty and malformed rows under random guards.
func TestReadCSVParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	casesPool := []string{"c1", "c2", "c3", " c4 ", `"c5"`, `"c,6"`, ""}
	actsPool := []string{"A", "B", "C", " D ", `"E,F"`, "\"G\nH\"", "\"I\r\nJ\"", "", `K"L`, `"M`}
	iters := 3000
	if testing.Short() {
		iters = 300
	}
	for i := 0; i < iters; i++ {
		var b strings.Builder
		eol := "\n"
		if rng.Intn(3) == 0 {
			eol = "\r\n"
		}
		if rng.Intn(2) == 0 {
			b.WriteString("case,activity" + eol)
		}
		for rows := rng.Intn(30); rows > 0; rows-- {
			b.WriteString(casesPool[rng.Intn(len(casesPool))])
			fields := 1 + rng.Intn(6)/5 // mostly one more field, sometimes two
			for ; fields > 0; fields-- {
				b.WriteString("," + actsPool[rng.Intn(len(actsPool))])
			}
			if rng.Intn(25) == 0 {
				continue // a row glued to the next one
			}
			b.WriteString(eol)
		}
		src := b.String()
		opts := ReadOptions{
			Lenient:     rng.Intn(2) == 0,
			MaxTraceLen: rng.Intn(4),
			MaxErrors:   rng.Intn(3),
		}
		if rng.Intn(3) == 0 && len(src) > 0 {
			opts.MaxLogBytes = int64(1 + rng.Intn(len(src)))
		}
		if d := csvParityDiff(src, opts); d != "" {
			t.Fatalf("iteration %d, %+v, %q: %s", i, opts, src, d)
		}
	}
}

// TestReadCSVInternOrder pins the id order: names are interned walking kept
// cases in first-appearance order, not in row order, and a dropped case
// interns nothing.
func TestReadCSVInternOrder(t *testing.T) {
	l, _, err := ReadCSVReport(strings.NewReader("c1,A\nc2,B\nc1,C\nc3,D\nc3,E\nc3,F\nc2,A\n"),
		ReadOptions{Lenient: true, MaxTraceLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := l.Alphabet.Names(), []string{"A", "C", "B"}; !reflect.DeepEqual(got, want) {
		t.Errorf("alphabet = %q, want %q", got, want)
	}
}

func TestReadCSVStripsBOM(t *testing.T) {
	src := "\ufeffcase,activity\nc1,A\nc1,B\n"
	reg := telemetry.NewRegistry()
	l, rep, err := ReadCSVReport(strings.NewReader(src), ReadOptions{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Traces != 1 || l.NumTraces() != 1 {
		t.Fatalf("traces = %d, want 1 (the BOM must not hide the header)", l.NumTraces())
	}
	if got, want := l.Alphabet.Names(), []string{"A", "B"}; !reflect.DeepEqual(got, want) {
		t.Errorf("alphabet = %q, want %q", got, want)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("logio.bytes"); got != int64(len(src)) {
		t.Errorf("logio.bytes = %d, want %d (the BOM is consumed input)", got, len(src))
	}
	if _, _, err := ReadCSVReport(strings.NewReader(src), ReadOptions{MaxLogBytes: int64(len(src) - 1)}); err == nil {
		t.Error("the BOM must count against MaxLogBytes")
	}
	l, err = ReadCSV(strings.NewReader("\ufeffc1,A\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := l.Alphabet.Names(), []string{"A"}; !reflect.DeepEqual(got, want) {
		t.Errorf("headerless alphabet = %q, want %q", got, want)
	}
}

func TestReadTraceLinesStripsBOM(t *testing.T) {
	src := "\ufeffA B\nB A\n"
	l, err := ReadTraceLines(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := l.Alphabet.Names(), []string{"A", "B"}; !reflect.DeepEqual(got, want) {
		t.Errorf("alphabet = %q, want %q", got, want)
	}
	if _, _, err := ReadTraceLinesReport(strings.NewReader(src), ReadOptions{MaxLogBytes: int64(len(src) - 1)}); err == nil {
		t.Error("the BOM must count against MaxLogBytes")
	}
	// A BOM-only or shorter-than-a-BOM input is an empty log or a plain name.
	for src, want := range map[string][]string{"\ufeff": {}, "\xef\xbb": {"\xef\xbb"}, "A": {"A"}} {
		l, err := ReadTraceLines(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		if got := l.Alphabet.Names(); !reflect.DeepEqual(got, want) {
			t.Errorf("%q: alphabet = %q, want %q", src, got, want)
		}
	}
}

// csvShapes are the benchmark's and allocation gates' inputs: the same
// 40,000 rows of the two-block Fig. 11 log with 2000 traces, laid out as
// WriteCSV writes them (grouped by case), with cases round-robin
// (interleaved, so consecutive rows never share a case), and with every field
// quoted and CRLF line ends (quoted-crlf).
var csvShapes = []string{"grouped", "interleaved", "quoted-crlf"}

func largeCSV(tb testing.TB, shape string) (data []byte, rows int) {
	tb.Helper()
	l := gen.LargeSynthetic(1, 2, 2000).L1
	var buf bytes.Buffer
	switch shape {
	case "grouped":
		if err := WriteCSV(&buf, l); err != nil {
			tb.Fatal(err)
		}
	case "interleaved":
		buf.WriteString("case,activity\n")
		for j, more := 0, true; more; j++ {
			more = false
			for i, t := range l.Traces {
				if j < len(t) {
					fmt.Fprintf(&buf, "c%d,%s\n", i+1, l.Alphabet.Name(t[j]))
					more = true
				}
			}
		}
	case "quoted-crlf":
		buf.WriteString("\"case\",\"activity\"\r\n")
		for i, t := range l.Traces {
			for _, e := range t {
				fmt.Fprintf(&buf, "\"c%d\",\"%s\"\r\n", i+1, l.Alphabet.Name(e))
			}
		}
	default:
		tb.Fatalf("unknown CSV shape %q", shape)
	}
	for _, t := range l.Traces {
		rows += len(t)
	}
	return buf.Bytes(), rows
}

// TestReadCSVAllocsPerRow gates the reader's allocations. No row allocates:
// what remains is one string per new case or activity, the map and slice
// growth, and the traces cut from one slab. The interleaved log checks the
// same holds when consecutive rows never share a case.
func TestReadCSVAllocsPerRow(t *testing.T) {
	for _, shape := range []string{"grouped", "interleaved"} {
		t.Run(shape, func(t *testing.T) {
			data, rows := largeCSV(t, shape)
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := ReadCSV(bytes.NewReader(data)); err != nil {
					t.Fatal(err)
				}
			})
			if perRow := allocs / float64(rows); perRow > 0.1 {
				t.Errorf("ReadCSV: %.3f allocs per row over %d rows, want <= 0.1", perRow, rows)
			}
		})
	}
}

func BenchmarkReadCSV(b *testing.B) {
	for _, shape := range csvShapes {
		b.Run(shape, func(b *testing.B) {
			data, _ := largeCSV(b, shape)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ReadCSV(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
