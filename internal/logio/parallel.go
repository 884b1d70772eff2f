package logio

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"eventmatch/internal/event"
)

// readTraceLinesParallel is the Workers > 1 path of ReadTraceLinesReport. It
// splits the read into three phases: a sequential line collection (I/O and
// the byte guard are stream-stateful), a parallel tokenization phase
// (TrimSpace/Fields dominate ingestion cost and are pure per line), and a
// sequential assembly phase that applies trace-length limits, interns names
// and fills the report in line order — so the produced log, report and
// errors are exactly those of the sequential reader.
func readTraceLinesParallel(r io.Reader, opts ReadOptions) (*event.Log, ReadReport, error) {
	var rep ReadReport
	l := event.NewLog()
	br := skipBOM(guardReader(r, opts))

	type rawLine struct {
		text string
		line int // 1-based input line
	}
	var lines []rawLine
	lineNo := 0
	var readErr error
	readErrLine := 0
	for {
		line, err := br.ReadString('\n')
		lineNo++
		if err != nil && err != io.EOF {
			// Non-EOF failure (I/O error, byte limit): the partial line is
			// unreliable, so it is dropped rather than parsed as a trace.
			readErr = err
			readErrLine = lineNo
			break
		}
		lines = append(lines, rawLine{line, lineNo})
		if err == io.EOF {
			break
		}
	}

	type tokLine struct {
		fields []string
		skip   bool // blank line or comment
	}
	toks := make([]tokLine, len(lines))
	tokenize := func(i int) {
		trimmed := strings.TrimSpace(lines[i].text)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			toks[i].skip = true
			return
		}
		toks[i].fields = strings.Fields(trimmed)
	}
	workers := opts.Workers
	if workers > len(lines) {
		workers = len(lines)
	}
	if workers <= 1 {
		for i := range lines {
			tokenize(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(lines) {
						return
					}
					tokenize(i)
				}
			}()
		}
		wg.Wait()
	}

	for i, tk := range toks {
		if tk.skip {
			continue
		}
		if opts.MaxTraceLen > 0 && len(tk.fields) > opts.MaxTraceLen {
			pe := ParseError{Line: lines[i].line, Trace: rep.Traces, Msg: fmt.Sprintf("trace has %d events, limit %d", len(tk.fields), opts.MaxTraceLen)}
			if !opts.Lenient {
				return nil, rep, fmt.Errorf("logio: %w", pe)
			}
			rep.record(opts, pe)
			rep.SkippedTraces++
			continue
		}
		l.AppendNames(tk.fields...)
		rep.Traces++
	}
	if readErr != nil {
		if !opts.Lenient {
			return nil, rep, fmt.Errorf("logio: %w", readErr)
		}
		rep.record(opts, ParseError{Line: readErrLine, Trace: -1, Msg: readErr.Error()})
	}
	opts.Telemetry.Counter("logio.lines").Add(int64(lineNo))
	opts.noteRead(l, &rep)
	return l, rep, nil
}
