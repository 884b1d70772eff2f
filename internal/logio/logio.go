// Package logio reads and writes event logs in three hand-rolled formats:
//
//   - trace lines (.log): one trace per line, whitespace-separated event
//     names, '#' comments — the format used throughout the examples;
//   - CSV (.csv): "case,activity" rows in timestamp order, the shape event
//     data typically leaves an ERP system in;
//   - a minimal XES subset (.xes): the XML interchange format of the process
//     mining community, restricted to concept:name string attributes.
//
// The matcher itself is format-agnostic; these readers exist because the
// paper's setting (heterogeneous enterprise event logs) implies ingesting
// logs from whatever shape each source system emits.
//
// Every reader streams its input once, sequentially, on the caller's
// goroutine.
package logio

import (
	"encoding/csv"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"eventmatch/internal/event"
)

// ReadTraceLines parses the trace-lines format: one trace per line of
// whitespace-separated event names; blank lines and lines starting with '#'
// are skipped. Strict mode of ReadTraceLinesReport.
func ReadTraceLines(r io.Reader) (*event.Log, error) {
	l, _, err := ReadTraceLinesReport(r, ReadOptions{})
	return l, err
}

// ReadTraceLinesReport is ReadTraceLines with fault tolerance and resource
// guards. In lenient mode oversized traces are skipped and a byte-limit hit
// keeps the traces parsed so far; both are recorded in the report.
func ReadTraceLinesReport(r io.Reader, opts ReadOptions) (*event.Log, ReadReport, error) {
	var rep ReadReport
	l := event.NewLog()
	br := skipBOM(guardReader(r, opts))
	lineNo := 0 // lines read so far
	for {
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			// Non-EOF failure (I/O error, byte limit): the partial line is
			// unreliable, so it is dropped rather than parsed as a trace.
			if !opts.Lenient {
				return nil, rep, fmt.Errorf("logio: %w", err)
			}
			rep.record(opts, ParseError{Line: lineNo + 1, Trace: -1, Msg: err.Error()})
			break
		}
		if line == "" {
			break // EOF right after the last newline (or on empty input)
		}
		lineNo++
		trimmed := strings.TrimSpace(line)
		if trimmed != "" && !strings.HasPrefix(trimmed, "#") {
			fields := strings.Fields(trimmed)
			if opts.MaxTraceLen > 0 && len(fields) > opts.MaxTraceLen {
				pe := ParseError{Line: lineNo, Trace: rep.Traces, Msg: fmt.Sprintf("trace has %d events, limit %d", len(fields), opts.MaxTraceLen)}
				if !opts.Lenient {
					return nil, rep, fmt.Errorf("logio: %w", pe)
				}
				rep.record(opts, pe)
				rep.SkippedTraces++
			} else {
				l.AppendNames(fields...)
				rep.Traces++
			}
		}
		if err == io.EOF {
			break
		}
	}
	opts.Telemetry.Counter("logio.lines").Add(int64(lineNo))
	opts.noteRead(l, &rep)
	return l, rep, nil
}

// WriteTraceLines writes the log in trace-lines format.
func WriteTraceLines(w io.Writer, l *event.Log) error {
	var b strings.Builder
	for _, t := range l.Traces {
		for i, e := range t {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(l.Alphabet.Name(e))
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return fmt.Errorf("logio: %w", err)
		}
		b.Reset()
	}
	return nil
}

// ReadCSV parses "case,activity" rows (with optional header). Rows are taken
// in file order as the event order within each case; traces are emitted in
// order of each case's first appearance. Strict mode of ReadCSVReport.
func ReadCSV(r io.Reader) (*event.Log, error) {
	l, _, err := ReadCSVReport(r, ReadOptions{})
	return l, err
}

// ReadCSVReport is ReadCSV with fault tolerance and resource guards. Rows are
// streamed, so a malformed row is located by its 1-based input line. In
// lenient mode malformed rows are skipped, cases whose traces exceed
// MaxTraceLen are dropped whole, and a byte-limit hit keeps the rows parsed so
// far; every skip is recorded in the report.
//
// encoding/csv tokenizes; assembly maps each case to a dense case index and
// each activity to a local name id as rows stream in, cloning a field only
// when it becomes a new map key. The alphabet is interned at the end, walking
// the kept cases in first-appearance order, so event ids come out exactly as
// if every kept case had been appended name by name.
func ReadCSVReport(r io.Reader, opts ReadOptions) (*event.Log, ReadReport, error) {
	var rep ReadReport
	cr := csv.NewReader(skipBOM(guardReader(r, opts)))
	cr.FieldsPerRecord = -1 // validated by hand for per-row leniency
	cr.ReuseRecord = true
	type csvCase struct {
		ids       []int32 // local name ids in row order
		oversized bool    // the whole case is being dropped
	}
	var (
		cases   []csvCase // in first-appearance order
		caseIdx = map[string]int32{}
		names   []string // local name id -> activity
		nameIdx = map[string]int32{}
		first   = true
	)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			var pe *csv.ParseError
			line := 0
			if errors.As(err, &pe) {
				line = pe.Line
			}
			if !opts.Lenient {
				return nil, rep, fmt.Errorf("logio: csv: %w", err)
			}
			rep.record(opts, ParseError{Line: line, Trace: -1, Msg: err.Error()})
			if !errors.As(err, &pe) {
				break // I/O error or byte limit: nothing more to stream
			}
			rep.SkippedRows++
			continue
		}
		line, _ := cr.FieldPos(0)
		if first {
			first = false
			if len(rec) > 0 && strings.EqualFold(strings.TrimSpace(rec[0]), "case") {
				continue // header
			}
		}
		if len(rec) != 2 {
			pe := ParseError{Line: line, Trace: -1, Msg: fmt.Sprintf("expected 2 fields, got %d", len(rec))}
			if !opts.Lenient {
				return nil, rep, fmt.Errorf("logio: csv: %w", pe)
			}
			rep.record(opts, pe)
			rep.SkippedRows++
			continue
		}
		c := strings.TrimSpace(rec[0])
		a := strings.TrimSpace(rec[1])
		if c == "" || a == "" {
			pe := ParseError{Line: line, Trace: -1, Msg: "empty case or activity"}
			if !opts.Lenient {
				return nil, rep, fmt.Errorf("logio: csv: %w", pe)
			}
			rep.record(opts, pe)
			rep.SkippedRows++
			continue
		}
		ci, ok := caseIdx[c]
		if !ok {
			ci = int32(len(cases))
			caseIdx[strings.Clone(c)] = ci
			cases = append(cases, csvCase{})
		}
		cs := &cases[ci]
		if cs.oversized {
			continue
		}
		if opts.MaxTraceLen > 0 && len(cs.ids) >= opts.MaxTraceLen {
			pe := ParseError{Line: line, Trace: int(ci), Msg: fmt.Sprintf("case %q exceeds %d events", c, opts.MaxTraceLen)}
			if !opts.Lenient {
				return nil, rep, fmt.Errorf("logio: csv: %w", pe)
			}
			rep.record(opts, pe)
			rep.SkippedTraces++
			cs.oversized = true
			cs.ids = nil
			continue
		}
		ni, ok := nameIdx[a]
		if !ok {
			ni = int32(len(names))
			a = strings.Clone(a)
			nameIdx[a] = ni
			names = append(names, a)
		}
		cs.ids = append(cs.ids, ni)
	}
	l := event.NewLog()
	global := make([]event.ID, len(names)) // local name id -> alphabet id
	for i := range global {
		global[i] = event.None
	}
	for _, cs := range cases {
		if cs.oversized {
			continue
		}
		t := make(event.Trace, len(cs.ids))
		for i, ni := range cs.ids {
			if global[ni] == event.None {
				global[ni] = l.Alphabet.Intern(names[ni])
			}
			t[i] = global[ni]
		}
		l.Append(t)
		rep.Traces++
	}
	opts.noteRead(l, &rep)
	return l, rep, nil
}

// WriteCSV writes the log as "case,activity" rows with a header, numbering
// cases from 1 in trace order.
func WriteCSV(w io.Writer, l *event.Log) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"case", "activity"}); err != nil {
		return fmt.Errorf("logio: csv: %w", err)
	}
	for i, t := range l.Traces {
		caseID := fmt.Sprintf("c%d", i+1)
		for _, e := range t {
			if err := cw.Write([]string{caseID, l.Alphabet.Name(e)}); err != nil {
				return fmt.Errorf("logio: csv: %w", err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("logio: csv: %w", err)
	}
	return nil
}

// Minimal XES document model. Only <string key="concept:name"> attributes on
// events are interpreted; everything else is ignored on read and omitted on
// write.
type xesLog struct {
	XMLName xml.Name   `xml:"log"`
	Traces  []xesTrace `xml:"trace"`
}

type xesTrace struct {
	Events []xesEvent `xml:"event"`
}

type xesEvent struct {
	Strings []xesString `xml:"string"`
}

type xesString struct {
	Key   string `xml:"key,attr"`
	Value string `xml:"value,attr"`
}

// ReadXES parses a minimal XES document. Strict mode of ReadXESReport.
func ReadXES(r io.Reader) (*event.Log, error) {
	l, _, err := ReadXESReport(r, ReadOptions{})
	return l, err
}

// ReadXESReport is ReadXES with fault tolerance and resource guards. The
// document is token-streamed rather than decoded whole, so a malformed or
// incomplete document still yields the traces before the damage. In lenient
// mode events without a concept:name, badly nested elements, and oversized
// traces are skipped; an XML syntax error or byte-limit hit stops parsing but
// keeps the complete traces seen so far. Every problem is recorded.
func ReadXESReport(r io.Reader, opts ReadOptions) (*event.Log, ReadReport, error) {
	var rep ReadReport
	l := event.NewLog()
	dec := xml.NewDecoder(guardReader(r, opts))
	var (
		inTrace, inEvent bool
		sawRoot          bool
		names            []string
		curName          string
		sawName          bool
		traceIdx         = -1
		eventIdx         int
		traceBad         bool
	)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			line := 0
			var syn *xml.SyntaxError
			if errors.As(err, &syn) {
				line = syn.Line
			}
			if !opts.Lenient {
				return nil, rep, fmt.Errorf("logio: xes: %w", err)
			}
			rep.record(opts, ParseError{Line: line, Trace: traceIdx, Msg: err.Error()})
			if inTrace {
				rep.SkippedTraces++ // the open trace cannot be trusted
			}
			opts.noteRead(l, &rep)
			return l, rep, nil
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if !sawRoot {
				sawRoot = true
				if t.Name.Local != "log" {
					pe := ParseError{Trace: -1, Msg: fmt.Sprintf("expected element type <log> but have <%s>", t.Name.Local)}
					if !opts.Lenient {
						return nil, rep, fmt.Errorf("logio: xes: %w", pe)
					}
					rep.record(opts, pe)
				}
				if t.Name.Local == "log" {
					continue
				}
			}
			switch t.Name.Local {
			case "trace":
				if inTrace {
					pe := ParseError{Trace: traceIdx, Msg: "nested <trace> element"}
					if !opts.Lenient {
						return nil, rep, fmt.Errorf("logio: xes: %w", pe)
					}
					rep.record(opts, pe)
					traceBad = true
					continue
				}
				inTrace = true
				traceIdx++
				eventIdx = 0
				traceBad = false
				names = names[:0]
			case "event":
				if !inTrace || inEvent {
					pe := ParseError{Trace: traceIdx, Msg: "misplaced <event> element"}
					if !opts.Lenient {
						return nil, rep, fmt.Errorf("logio: xes: %w", pe)
					}
					rep.record(opts, pe)
					rep.SkippedRows++
					continue
				}
				inEvent = true
				sawName = false
			case "string":
				if inEvent && !sawName {
					key, val := "", ""
					for _, a := range t.Attr {
						switch a.Name.Local {
						case "key":
							key = a.Value
						case "value":
							val = a.Value
						}
					}
					if key == "concept:name" {
						curName = val
						sawName = true
					}
				}
			}
		case xml.EndElement:
			switch t.Name.Local {
			case "event":
				if !inEvent {
					continue
				}
				inEvent = false
				if !sawName {
					pe := ParseError{Trace: traceIdx, Msg: fmt.Sprintf("trace %d event %d has no concept:name", traceIdx, eventIdx)}
					if !opts.Lenient {
						return nil, rep, fmt.Errorf("logio: xes: %s", pe.Msg)
					}
					rep.record(opts, pe)
					rep.SkippedRows++
				} else {
					names = append(names, curName)
				}
				eventIdx++
			case "trace":
				if !inTrace {
					continue
				}
				inTrace = false
				if opts.MaxTraceLen > 0 && len(names) > opts.MaxTraceLen {
					pe := ParseError{Trace: traceIdx, Msg: fmt.Sprintf("trace has %d events, limit %d", len(names), opts.MaxTraceLen)}
					if !opts.Lenient {
						return nil, rep, fmt.Errorf("logio: xes: %w", pe)
					}
					rep.record(opts, pe)
					traceBad = true
				}
				if traceBad {
					rep.SkippedTraces++
				} else if len(names) > 0 {
					l.AppendNames(names...)
					rep.Traces++
				}
			}
		}
	}
	if !sawRoot {
		err := fmt.Errorf("logio: xes: %w", io.ErrUnexpectedEOF)
		if !opts.Lenient {
			return nil, rep, err
		}
		rep.record(opts, ParseError{Trace: -1, Msg: "no XML content"})
	}
	opts.noteRead(l, &rep)
	return l, rep, nil
}

// WriteXES writes the log as a minimal XES document.
func WriteXES(w io.Writer, l *event.Log) error {
	doc := xesLog{}
	for _, t := range l.Traces {
		tr := xesTrace{}
		for _, e := range t {
			tr.Events = append(tr.Events, xesEvent{Strings: []xesString{{Key: "concept:name", Value: l.Alphabet.Name(e)}}})
		}
		doc.Traces = append(doc.Traces, tr)
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return fmt.Errorf("logio: xes: %w", err)
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("logio: xes: %w", err)
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return fmt.Errorf("logio: xes: %w", err)
	}
	return nil
}

// Format names accepted by ReadAuto / WriteAuto.
const (
	FormatTraceLines = "log"
	FormatCSV        = "csv"
	FormatXES        = "xes"
)

// DetectFormat guesses the format from a file name extension, defaulting to
// trace lines.
func DetectFormat(filename string) string {
	switch {
	case strings.HasSuffix(filename, ".csv"):
		return FormatCSV
	case strings.HasSuffix(filename, ".xes"), strings.HasSuffix(filename, ".xml"):
		return FormatXES
	default:
		return FormatTraceLines
	}
}

// Read parses r in the named format (strict mode).
func Read(r io.Reader, format string) (*event.Log, error) {
	l, _, err := ReadWithReport(r, format, ReadOptions{})
	return l, err
}

// ReadWithReport parses r in the named format under the given fault-tolerance
// and resource options.
func ReadWithReport(r io.Reader, format string, opts ReadOptions) (*event.Log, ReadReport, error) {
	switch format {
	case FormatTraceLines:
		return ReadTraceLinesReport(r, opts)
	case FormatCSV:
		return ReadCSVReport(r, opts)
	case FormatXES:
		return ReadXESReport(r, opts)
	default:
		return nil, ReadReport{}, fmt.Errorf("logio: unknown format %q", format)
	}
}

// Write serializes l to w in the named format.
func Write(w io.Writer, l *event.Log, format string) error {
	switch format {
	case FormatTraceLines:
		return WriteTraceLines(w, l)
	case FormatCSV:
		return WriteCSV(w, l)
	case FormatXES:
		return WriteXES(w, l)
	default:
		return fmt.Errorf("logio: unknown format %q", format)
	}
}
