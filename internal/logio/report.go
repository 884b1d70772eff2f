package logio

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"eventmatch/internal/event"
	"eventmatch/internal/telemetry"
)

// DefaultMaxErrors caps how many ParseErrors a ReadReport retains when
// ReadOptions.MaxErrors is zero. The count keeps running past the cap.
const DefaultMaxErrors = 100

// ReadOptions control fault tolerance and resource guards for the readers.
// The zero value is strict mode with no trace-length or byte limits.
type ReadOptions struct {
	// Lenient makes the readers skip malformed rows (CSV), malformed or
	// incomplete events (XES), and oversized traces instead of failing on
	// the first problem. Every skip is recorded in the ReadReport.
	Lenient bool
	// MaxTraceLen rejects traces with more events than this; 0 means
	// unlimited. In strict mode an oversized trace is an error; in lenient
	// mode the whole trace is skipped.
	MaxTraceLen int
	// MaxLogBytes caps how many input bytes a reader consumes; 0 means
	// unlimited. In strict mode exceeding the cap is an error; in lenient
	// mode the traces parsed before the cap are kept and the truncation is
	// recorded.
	MaxLogBytes int64
	// MaxErrors caps how many ParseErrors the report retains (the error
	// *count* keeps running). 0 means DefaultMaxErrors.
	MaxErrors int
	// Telemetry, when non-nil, receives ingestion counters: logio.bytes
	// (input bytes consumed), logio.lines (lines read, trace-lines format
	// only; a line cut short by an I/O error or the byte limit is not read),
	// logio.traces, logio.events (both for logs delivered to the caller,
	// including lenient partial reads), and logio.parse_errors. Nil disables
	// all instrumentation at zero cost.
	Telemetry *telemetry.Registry
}

func (o ReadOptions) maxErrors() int {
	if o.MaxErrors <= 0 {
		return DefaultMaxErrors
	}
	return o.MaxErrors
}

// ParseError describes one malformed piece of input. Line is 1-based when the
// format has meaningful line numbers and 0 otherwise; Trace is the 0-based
// trace (or CSV case / XES trace element) index when known, else -1.
type ParseError struct {
	Line  int
	Trace int
	Msg   string
}

func (e ParseError) Error() string {
	switch {
	case e.Line > 0 && e.Trace >= 0:
		return fmt.Sprintf("line %d (trace %d): %s", e.Line, e.Trace, e.Msg)
	case e.Line > 0:
		return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
	case e.Trace >= 0:
		return fmt.Sprintf("trace %d: %s", e.Trace, e.Msg)
	default:
		return e.Msg
	}
}

// ReadReport summarizes a (possibly lenient) read.
type ReadReport struct {
	Traces        int          // traces delivered into the log
	SkippedRows   int          // malformed rows/events dropped (lenient)
	SkippedTraces int          // whole traces dropped (lenient)
	ErrorCount    int          // total problems encountered, capped nowhere
	Errors        []ParseError // first maxErrors problems, in input order
}

// record notes one problem; retention is capped, the count is not.
func (rep *ReadReport) record(opts ReadOptions, e ParseError) {
	rep.ErrorCount++
	opts.Telemetry.Counter("logio.parse_errors").Inc()
	if len(rep.Errors) < opts.maxErrors() {
		rep.Errors = append(rep.Errors, e)
	}
}

// noteRead records the delivered log in the telemetry registry; called once
// per read on every path that hands a log back to the caller (including
// lenient partial reads). No-op without a registry.
func (o ReadOptions) noteRead(l *event.Log, rep *ReadReport) {
	if o.Telemetry == nil || l == nil {
		return
	}
	o.Telemetry.Counter("logio.traces").Add(int64(rep.Traces))
	var ev int64
	for _, t := range l.Traces {
		ev += int64(len(t))
	}
	o.Telemetry.Counter("logio.events").Add(ev)
}

// ErrLogTooLarge is returned (wrapped) when the input exceeds
// ReadOptions.MaxLogBytes.
var ErrLogTooLarge = errors.New("input exceeds byte limit")

// limitedReader reads at most max bytes and then fails with ErrLogTooLarge —
// unlike io.LimitReader, which reports a silent EOF and would make a truncated
// log indistinguishable from a complete one. An input of exactly max bytes is
// not too large: once the budget is spent, a 1-byte probe tells the two apart.
type limitedReader struct {
	r   io.Reader
	max int64
}

func (lr *limitedReader) Read(p []byte) (int, error) {
	if lr.max <= 0 {
		var probe [1]byte
		if n, err := lr.r.Read(probe[:]); n == 0 && err == io.EOF {
			return 0, io.EOF
		}
		return 0, ErrLogTooLarge
	}
	if int64(len(p)) > lr.max {
		p = p[:lr.max]
	}
	n, err := lr.r.Read(p)
	lr.max -= int64(n)
	return n, err
}

// countingReader adds every byte delivered downstream to a telemetry
// counter. It sits outside the byte-limit guard, so logio.bytes reports
// bytes actually consumed, not bytes offered.
type countingReader struct {
	r io.Reader
	c *telemetry.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(int64(n))
	return n, err
}

// guardReader applies MaxLogBytes and the byte counter if set.
func guardReader(r io.Reader, opts ReadOptions) io.Reader {
	if opts.MaxLogBytes > 0 {
		r = &limitedReader{r: r, max: opts.MaxLogBytes}
	}
	if opts.Telemetry != nil {
		r = &countingReader{r: r, c: opts.Telemetry.Counter("logio.bytes")}
	}
	return r
}

// utf8BOM is the byte-order mark spreadsheet exports often lead with.
const utf8BOM = "\ufeff"

// skipBOM buffers r and drops a leading UTF-8 BOM, so it never becomes part
// of a CSV header or an event name. It wraps guardReader's output: the BOM
// still counts against MaxLogBytes and towards logio.bytes. The buffer has
// bufio's default size, which csv.NewReader adopts instead of adding its own.
func skipBOM(r io.Reader) *bufio.Reader {
	br := bufio.NewReader(r)
	if b, err := br.Peek(len(utf8BOM)); err == nil && string(b) == utf8BOM {
		_, _ = br.Discard(len(utf8BOM)) // peeked bytes are buffered: cannot fail
	}
	return br
}
