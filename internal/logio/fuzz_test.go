package logio

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadTraceLines checks the trace-lines reader never panics and that
// whatever it accepts round-trips through the writer.
func FuzzReadTraceLines(f *testing.F) {
	f.Add("A B C\nC B A\n")
	f.Add("# comment\n\nA\n")
	f.Add("  padded   tokens \n")
	f.Fuzz(func(t *testing.T, src string) {
		l, err := ReadTraceLines(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("reader produced invalid log: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteTraceLines(&buf, l); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadTraceLines(&buf)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if back.NumTraces() != l.NumTraces() {
			t.Fatalf("trace count changed: %d -> %d", l.NumTraces(), back.NumTraces())
		}
	})
}

// FuzzReadCSV checks the CSV reader handles arbitrary input without panics
// and agrees with readCSVReference, strict and lenient, on everything it
// returns: alphabet order, traces, report and error text.
func FuzzReadCSV(f *testing.F) {
	f.Add("case,activity\nc1,A\nc1,B\n")
	f.Add("c1,A\n")
	f.Add(",,,\n")
	f.Add("\"quoted\",value\n")
	f.Add("c1,A\nc2,B\nc1,C\nc2,A\nc1,D\n")
	f.Add("\ufeffcase,activity\r\nc1,\"A,B\"\r\nc1,B\"x\r\n")
	f.Add("c1,A\nc1," + strings.Repeat("x", 5000) + "\nc1,B\n")
	f.Add(strings.Repeat("c1,A\n", 817) + "c1,\"" + strings.Repeat("q", 30) + "\"\"\nq\"\n")
	f.Add("c1,A\rB\nc1,\"C\rD\"\nc1,E\r")
	f.Add("\r\n\r\ncase,activity\r\n\r\nc1,A\r\n")
	f.Add("case,activity,\nc1,A,\nc1,B\n")
	f.Add("\"case\",activity\nc1,A\n")
	f.Add("\"c\n1\",B\n\"c\n2\",D,E\n\"c\n3\",F\"x\n")
	f.Fuzz(func(t *testing.T, src string) {
		for _, opts := range []ReadOptions{{}, {Lenient: true}, {Lenient: true, MaxTraceLen: 2}} {
			if d := csvParityDiff(src, opts); d != "" {
				t.Fatalf("%+v: %s", opts, d)
			}
		}
		l, err := ReadCSV(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("reader produced invalid log: %v", err)
		}
	})
}

// FuzzReadXES checks the XES reader handles arbitrary XML without panics.
func FuzzReadXES(f *testing.F) {
	f.Add(`<log><trace><event><string key="concept:name" value="A"/></event></trace></log>`)
	f.Add(`<log>`)
	f.Add(`<?xml version="1.0"?><log/>`)
	f.Fuzz(func(t *testing.T, src string) {
		l, err := ReadXES(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("reader produced invalid log: %v", err)
		}
	})
}
