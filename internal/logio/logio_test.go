package logio

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"eventmatch/internal/event"
)

func logEqual(a, b *event.Log) bool {
	if a.NumTraces() != b.NumTraces() {
		return false
	}
	for i := range a.Traces {
		if len(a.Traces[i]) != len(b.Traces[i]) {
			return false
		}
		for j := range a.Traces[i] {
			if a.Alphabet.Name(a.Traces[i][j]) != b.Alphabet.Name(b.Traces[i][j]) {
				return false
			}
		}
	}
	return true
}

func TestReadTraceLines(t *testing.T) {
	in := `# comment
A B C

B C A
`
	l, err := ReadTraceLines(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if l.NumTraces() != 2 || l.NumEvents() != 3 {
		t.Fatalf("traces=%d events=%d", l.NumTraces(), l.NumEvents())
	}
	if got := l.Traces[1].String(l.Alphabet); got != "<B C A>" {
		t.Errorf("trace 1 = %s", got)
	}
}

func TestTraceLinesRoundTrip(t *testing.T) {
	l := event.FromStrings("A B C", "C B A", "A")
	var buf bytes.Buffer
	if err := WriteTraceLines(&buf, l); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceLines(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !logEqual(l, back) {
		t.Errorf("round trip mismatch:\n%s", buf.String())
	}
}

func TestReadCSV(t *testing.T) {
	in := "case,activity\nc1,A\nc1,B\nc2,X\nc1,C\nc2,Y\n"
	l, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if l.NumTraces() != 2 {
		t.Fatalf("traces = %d", l.NumTraces())
	}
	if got := l.Traces[0].String(l.Alphabet); got != "<A B C>" {
		t.Errorf("trace 0 = %s (interleaved case rows must group)", got)
	}
	if got := l.Traces[1].String(l.Alphabet); got != "<X Y>" {
		t.Errorf("trace 1 = %s", got)
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	l, err := ReadCSV(strings.NewReader("c1,A\nc1,B\n"))
	if err != nil {
		t.Fatal(err)
	}
	if l.NumTraces() != 1 || len(l.Traces[0]) != 2 {
		t.Errorf("log = %+v", l)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("c1,A,extra\n")); err == nil {
		t.Error("wrong field count must fail")
	}
	if _, err := ReadCSV(strings.NewReader("c1,\n")); err == nil {
		t.Error("empty activity must fail")
	}
	if _, err := ReadCSV(strings.NewReader(",A\n")); err == nil {
		t.Error("empty case must fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	l := event.FromStrings("A B", "B A C")
	var buf bytes.Buffer
	if err := WriteCSV(&buf, l); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !logEqual(l, back) {
		t.Errorf("round trip mismatch:\n%s", buf.String())
	}
}

func TestXESRoundTrip(t *testing.T) {
	l := event.FromStrings("A B C", "C A")
	var buf bytes.Buffer
	if err := WriteXES(&buf, l); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "concept:name") {
		t.Fatalf("xes output missing concept:name:\n%s", buf.String())
	}
	back, err := ReadXES(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !logEqual(l, back) {
		t.Errorf("round trip mismatch")
	}
}

func TestReadXESIgnoresForeignAttributes(t *testing.T) {
	in := `<?xml version="1.0"?>
<log xes.version="1.0">
  <trace>
    <string key="concept:name" value="case1"/>
    <event>
      <string key="org:resource" value="alice"/>
      <string key="concept:name" value="A"/>
      <date key="time:timestamp" value="2014-01-01T00:00:00Z"/>
    </event>
    <event><string key="concept:name" value="B"/></event>
  </trace>
</log>`
	l, err := ReadXES(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if l.NumTraces() != 1 || l.Traces[0].String(l.Alphabet) != "<A B>" {
		t.Errorf("log = %+v", l)
	}
}

func TestReadXESMissingName(t *testing.T) {
	in := `<log><trace><event><string key="other" value="x"/></event></trace></log>`
	if _, err := ReadXES(strings.NewReader(in)); err == nil {
		t.Error("event without concept:name must fail")
	}
}

func TestReadXESMalformed(t *testing.T) {
	if _, err := ReadXES(strings.NewReader("<log><trace>")); err == nil {
		t.Error("malformed XML must fail")
	}
}

func TestDetectFormat(t *testing.T) {
	cases := map[string]string{
		"a.csv":  FormatCSV,
		"a.xes":  FormatXES,
		"a.xml":  FormatXES,
		"a.log":  FormatTraceLines,
		"a.txt":  FormatTraceLines,
		"nodots": FormatTraceLines,
		// Extensions match in any letter case.
		"export.CSV":     FormatCSV,
		"log.XES":        FormatXES,
		"a.Xml":          FormatXES,
		"dir/Export.CsV": FormatCSV,
		"a.LOG":          FormatTraceLines,
		"csv":            FormatTraceLines,
	}
	for name, want := range cases {
		if got := DetectFormat(name); got != want {
			t.Errorf("DetectFormat(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestReadWriteDispatch(t *testing.T) {
	l := event.FromStrings("A B")
	for _, f := range []string{FormatTraceLines, FormatCSV, FormatXES} {
		var buf bytes.Buffer
		if err := Write(&buf, l, f); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		back, err := Read(&buf, f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !logEqual(l, back) {
			t.Errorf("%s: round trip mismatch", f)
		}
	}
	if _, err := Read(strings.NewReader(""), "nope"); err == nil {
		t.Error("unknown read format must fail")
	}
	if err := Write(&bytes.Buffer{}, l, "nope"); err == nil {
		t.Error("unknown write format must fail")
	}
}

// Property: every format round-trips random logs losslessly.
func TestFormatsRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := event.NewLog()
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			l.Alphabet.Intern(string(rune('A' + i)))
		}
		for i := 0; i < 1+rng.Intn(10); i++ {
			tr := make(event.Trace, 1+rng.Intn(6))
			for j := range tr {
				tr[j] = event.ID(rng.Intn(n))
			}
			l.Append(tr)
		}
		for _, format := range []string{FormatTraceLines, FormatCSV, FormatXES} {
			var buf bytes.Buffer
			if err := Write(&buf, l, format); err != nil {
				return false
			}
			back, err := Read(&buf, format)
			if err != nil || !logEqual(l, back) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTraceLinesSkipEmptyTraces(t *testing.T) {
	// Log containing an empty trace: writer emits an empty line, reader skips
	// it. Documented asymmetry; check the reader side.
	l, err := ReadTraceLines(strings.NewReader("A\n\n\nB\n"))
	if err != nil {
		t.Fatal(err)
	}
	if l.NumTraces() != 2 {
		t.Errorf("traces = %d, want 2", l.NumTraces())
	}
	if !reflect.DeepEqual(l.Traces[0], event.Trace{0}) {
		t.Errorf("trace 0 = %v", l.Traces[0])
	}
}
