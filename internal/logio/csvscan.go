package logio

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"io"
)

// csvScanner tokenizes CSV with encoding/csv's grammar for the one reader
// configuration the CSV format uses: Comma ',', no Comment, strict quotes,
// no leading-space trimming and a variable field count. That covers RFC 4180
// quoting, "" escapes, quoted newlines, \r\n normalisation, a trailing \r
// dropped at EOF and blank lines skipped. Its records, line numbers and
// *csv.ParseErrors match encoding/csv's, which the parity tests and the
// differential fuzz target check against readCSVReference.
//
// Unlike csv.Reader it never builds a record string: the fields of the
// current record are byte ranges, valid until the next call to next. A
// record on one line without a quote, the usual row, is cut straight from
// the read buffer; any other record is unescaped into one reused buffer.
type csvScanner struct {
	r       *bufio.Reader
	numLine int    // lines read so far
	raw     []byte // a line longer than the bufio buffer, reassembled
	buf     []byte // the unescaped fields of a record with quotes
	rec     []byte // the current record's field bytes: a line, or buf
	bounds  []int  // start and end offset in rec of each field
	line    int    // line the current record starts on
}

// fields reports how many fields the current record has.
func (s *csvScanner) fields() int { return len(s.bounds) / 2 }

// field returns field i of the current record.
func (s *csvScanner) field(i int) []byte { return s.rec[s.bounds[2*i]:s.bounds[2*i+1]] }

// readLine is encoding/csv's readLine: the next line with its \n, \r\n
// normalised to \n, a \r before EOF dropped, and io.EOF only when no byte
// was read. The line is valid until the next call.
func (s *csvScanner) readLine() ([]byte, error) {
	line, err := s.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		s.raw = append(s.raw[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = s.r.ReadSlice('\n')
			s.raw = append(s.raw, line...)
		}
		line = s.raw
	}
	if n := len(line); n > 0 && err == io.EOF {
		err = nil
		if line[n-1] == '\r' {
			line = line[:n-1]
		}
	}
	s.numLine++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL reports the number of bytes for the trailing \n.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// next reads the next record, encoding/csv's readRecord. It returns io.EOF
// at the end of input, a *csv.ParseError for a malformed record (reading
// may go on with the next one), and any other error from the underlying
// reader as is.
func (s *csvScanner) next() error {
	var line []byte
	var errRead error
	for errRead == nil {
		line, errRead = s.readLine()
		if errRead == nil && len(line) == lengthNL(line) {
			continue // blank line
		}
		break
	}
	if errRead == io.EOF {
		return errRead
	}
	s.line = s.numLine
	if s.splitPlain(line) {
		return errRead
	}
	rec, bounds := s.buf[:0], s.bounds[:0]
	posLine, col := s.numLine, 1 // where the scan stands, 1-based
	var err error
parseField:
	for {
		start := len(rec)
		if len(line) == 0 || line[0] != '"' {
			field := line
			i := bytes.IndexByte(line, ',')
			if i >= 0 {
				field = field[:i]
			} else {
				field = field[:len(field)-lengthNL(field)]
			}
			if j := bytes.IndexByte(field, '"'); j >= 0 {
				err = &csv.ParseError{StartLine: s.line, Line: s.numLine, Column: col + j, Err: csv.ErrBareQuote}
				break parseField
			}
			rec = append(rec, field...)
			bounds = append(bounds, start, len(rec))
			if i < 0 {
				break parseField
			}
			line = line[i+1:]
			col += i + 1
			continue parseField
		}
		line = line[1:] // opening quote
		col++
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				rec = append(rec, line[:i]...)
				line = line[i+1:]
				col += i + 1
				switch {
				case len(line) > 0 && line[0] == '"': // "" escape
					rec = append(rec, '"')
					line = line[1:]
					col++
				case len(line) > 0 && line[0] == ',': // end of field
					line = line[1:]
					col++
					bounds = append(bounds, start, len(rec))
					continue parseField
				case lengthNL(line) == len(line): // end of record
					bounds = append(bounds, start, len(rec))
					break parseField
				default:
					err = &csv.ParseError{StartLine: s.line, Line: s.numLine, Column: col - 1, Err: csv.ErrQuote}
					break parseField
				}
			case len(line) > 0: // the field goes on past the end of the line
				rec = append(rec, line...)
				if errRead != nil {
					break parseField
				}
				col += len(line)
				line, errRead = s.readLine()
				if len(line) > 0 {
					posLine++
					col = 1
				}
				if errRead == io.EOF {
					errRead = nil
				}
			default: // input ended inside the quotes
				if errRead == nil {
					err = &csv.ParseError{StartLine: s.line, Line: posLine, Column: col, Err: csv.ErrQuote}
					break parseField
				}
				bounds = append(bounds, start, len(rec))
				break parseField
			}
		}
	}
	s.buf, s.rec, s.bounds = rec, rec, bounds
	if err == nil {
		err = errRead
	}
	return err
}

// splitPlain cuts a line without a quote into its fields in place, as the
// full grammar would, and reports whether it did.
func (s *csvScanner) splitPlain(line []byte) bool {
	line = line[:len(line)-lengthNL(line)]
	bounds := s.bounds[:0]
	start := 0
	for i, b := range line {
		switch b {
		case ',':
			bounds = append(bounds, start, i)
			start = i + 1
		case '"':
			return false
		}
	}
	s.rec, s.bounds = line, append(bounds, start, len(line))
	return true
}
