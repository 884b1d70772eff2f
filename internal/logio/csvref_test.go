package logio

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strings"

	"eventmatch/internal/event"
)

// readCSVReference is the straightforward CSV assembly ReadCSVReport
// replaced: a name slice per case, string-keyed maps per row, and a second
// interning pass through Log.AppendNames. It is kept as the oracle for the
// parity tests and the differential fuzz target; only the BOM handling is
// shared with the production reader.
func readCSVReference(r io.Reader, opts ReadOptions) (*event.Log, ReadReport, error) {
	var rep ReadReport
	cr := csv.NewReader(skipBOM(guardReader(r, opts)))
	cr.FieldsPerRecord = -1 // validated by hand for per-row leniency
	order := []string{}
	byCase := map[string][]string{}
	oversized := map[string]bool{}
	first := true
	caseIdx := map[string]int{}
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
		if oversized[c] {
			continue // the whole case is being dropped
		}
		if _, ok := byCase[c]; !ok {
			caseIdx[c] = len(order)
			order = append(order, c)
		}
		if opts.MaxTraceLen > 0 && len(byCase[c]) >= opts.MaxTraceLen {
			pe := ParseError{Line: line, Trace: caseIdx[c], Msg: fmt.Sprintf("case %q exceeds %d events", c, opts.MaxTraceLen)}
			if !opts.Lenient {
				return nil, rep, fmt.Errorf("logio: csv: %w", pe)
			}
			rep.record(opts, pe)
			rep.SkippedTraces++
			oversized[c] = true
			byCase[c] = nil
			continue
		}
		byCase[c] = append(byCase[c], a)
	}
	l := event.NewLog()
	for _, c := range order {
		if oversized[c] || len(byCase[c]) == 0 {
			continue
		}
		l.AppendNames(byCase[c]...)
		rep.Traces++
	}
	opts.noteRead(l, &rep)
	return l, rep, nil
}
