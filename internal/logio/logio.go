// Package logio reads and writes event logs in three hand-rolled formats:
//
//   - trace lines (.log): one trace per line, whitespace-separated event
//     names, '#' comments — the format used throughout the examples;
//   - CSV (.csv): "case,activity" rows in timestamp order, the shape event
//     data typically leaves an ERP system in, tokenized in place with
//     encoding/csv's grammar (RFC 4180 quoting, CRLF line ends);
//   - a minimal XES subset (.xes): the XML interchange format of the process
//     mining community, restricted to concept:name string attributes.
//
// The matcher itself is format-agnostic; these readers exist because the
// paper's setting (heterogeneous enterprise event logs) implies ingesting
// logs from whatever shape each source system emits.
//
// Every reader streams its input once, sequentially, on the caller's
// goroutine. DetectFormat picks the format from a file extension in any
// letter case.
package logio

import (
	"bytes"
	"encoding/csv"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"unicode/utf8"

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
// csvScanner tokenizes in place with encoding/csv's grammar and errors, so no
// row allocates. Assembly maps each case to a dense case index, reusing the
// previous row's while the case repeats (WriteCSV groups rows by case), and
// each activity to a local name id, making a string only for a new map key.
// Rows go into one flat stream of name ids with a case marker wherever the
// case changes. At the end the kept cases are laid out back to back, in
// first-appearance order, in one event-id slab; the alphabet is interned
// walking that slab, and every trace is a capacity-capped subslice of it. So
// event ids come out exactly as if every kept case had been appended name by
// name.
func ReadCSVReport(r io.Reader, opts ReadOptions) (*event.Log, ReadReport, error) {
	var rep ReadReport
	sc := csvScanner{r: skipBOM(guardReader(r, opts))}
	type csvCase struct {
		name      string // the case's map key
		n         int    // rows kept so far
		oversized bool   // the whole case is being dropped
	}
	var (
		cases   []csvCase // in first-appearance order
		caseIdx = map[string]int32{}
		names   = nameTable{idx: map[string]int32{}}
		rows    []int32 // name id of every kept row; ^ci: the rows after are case ci's
		ci      = int32(-1)
		first   = true
	)
	for {
		err := sc.next()
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
			if pe == nil {
				break // I/O error or byte limit: nothing more to stream
			}
			rep.SkippedRows++
			continue
		}
		if first {
			first = false
			if bytes.EqualFold(trimSpace(sc.field(0)), []byte("case")) {
				continue // header
			}
		}
		if sc.fields() != 2 {
			pe := ParseError{Line: sc.line, Trace: -1, Msg: fmt.Sprintf("expected 2 fields, got %d", sc.fields())}
			if !opts.Lenient {
				return nil, rep, fmt.Errorf("logio: csv: %w", pe)
			}
			rep.record(opts, pe)
			rep.SkippedRows++
			continue
		}
		c := trimSpace(sc.field(0))
		a := trimSpace(sc.field(1))
		if len(c) == 0 || len(a) == 0 {
			pe := ParseError{Line: sc.line, Trace: -1, Msg: "empty case or activity"}
			if !opts.Lenient {
				return nil, rep, fmt.Errorf("logio: csv: %w", pe)
			}
			rep.record(opts, pe)
			rep.SkippedRows++
			continue
		}
		if ci < 0 || string(c) != cases[ci].name {
			var ok bool
			if ci, ok = caseIdx[string(c)]; !ok {
				ci = int32(len(cases))
				name := string(c)
				caseIdx[name] = ci
				cases = append(cases, csvCase{name: name})
			}
			rows = appendDoubling(rows, ^ci)
		}
		cs := &cases[ci]
		if cs.oversized {
			continue
		}
		if opts.MaxTraceLen > 0 && cs.n >= opts.MaxTraceLen {
			pe := ParseError{Line: sc.line, Trace: int(ci), Msg: fmt.Sprintf("case %q exceeds %d events", c, opts.MaxTraceLen)}
			if !opts.Lenient {
				return nil, rep, fmt.Errorf("logio: csv: %w", pe)
			}
			rep.record(opts, pe)
			rep.SkippedTraces++
			cs.oversized = true
			continue
		}
		rows = appendDoubling(rows, names.id(a))
		cs.n++
	}
	// Give each kept case its window of the slab; n becomes its fill cursor.
	total, kept := 0, 0
	for i := range cases {
		if cs := &cases[i]; !cs.oversized {
			cs.n, total = total, total+cs.n
			kept++
		}
	}
	slab := make([]event.ID, total)
	var cs *csvCase
	for _, v := range rows {
		if v < 0 {
			cs = &cases[^v]
		} else if !cs.oversized {
			slab[cs.n] = event.ID(v)
			cs.n++
		}
	}
	l := event.NewLog()
	if kept > 0 {
		l.Traces = make([]event.Trace, 0, kept)
	}
	global := make([]event.ID, len(names.names)) // local name id -> alphabet id
	for i := range global {
		global[i] = event.None
	}
	for i, ni := range slab {
		if global[ni] == event.None {
			global[ni] = l.Alphabet.Intern(names.names[ni])
		}
		slab[i] = global[ni]
	}
	start := 0
	for _, cs := range cases {
		if !cs.oversized {
			l.Append(slab[start:cs.n:cs.n])
			start = cs.n
			rep.Traces++
		}
	}
	opts.noteRead(l, &rep)
	return l, rep, nil
}

// nameTable gives activities dense local ids in first-appearance order. A
// small direct-mapped cache, indexed by a hash of the name's bytes, answers
// most lookups before the map does.
type nameTable struct {
	names  []string // local id -> name
	idx    map[string]int32
	recent [256]struct {
		name string
		id   int32
	}
}

// id returns a's local id, making a string only for a new name.
func (t *nameTable) id(a []byte) int32 {
	h := uint(len(a))
	for _, b := range a {
		h = h*31 + uint(b)
	}
	slot := &t.recent[h%uint(len(t.recent))]
	if len(a) > 0 && slot.name == string(a) {
		return slot.id
	}
	id, ok := t.idx[string(a)]
	if !ok {
		id = int32(len(t.names))
		name := string(a)
		t.idx[name] = id
		t.names = append(t.names, name)
	}
	slot.name, slot.id = t.names[id], id
	return id
}

// appendDoubling appends v to s, doubling the capacity when s is full:
// append's 1.25x growth for large slices would copy each row about five
// times.
func appendDoubling(s []int32, v int32) []int32 {
	if len(s) == cap(s) {
		s = slices.Grow(s, len(s)+1024)
	}
	return append(s, v)
}

// trimSpace is bytes.TrimSpace with a fast path for the usual field, one
// that starts and ends with a printable ASCII byte.
func trimSpace(b []byte) []byte {
	if n := len(b); n > 0 && b[0] > ' ' && b[0] < utf8.RuneSelf && b[n-1] > ' ' && b[n-1] < utf8.RuneSelf {
		return b
	}
	return bytes.TrimSpace(b)
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

// DetectFormat guesses the format from a file name extension, in any letter
// case, defaulting to trace lines.
func DetectFormat(filename string) string {
	switch strings.ToLower(filepath.Ext(filename)) {
	case ".csv":
		return FormatCSV
	case ".xes", ".xml":
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
