package logio

import (
	"bytes"
	"strings"
)

// sniffLimit bounds how much of the content SniffFormat inspects. Uploads can
// be large; the format is always decidable from the first line.
const sniffLimit = 4096

// SniffFormat guesses a log's format from its content — the upload-path
// counterpart of DetectFormat, for payloads that arrive without a file name.
// The heuristic inspects at most the first 4 KiB:
//
//   - content whose first non-blank byte is '<' (optionally after a UTF-8
//     BOM) is XES — XML is the only angle-bracketed format we read;
//   - otherwise, if the first non-blank, non-comment line contains a comma
//     it is CSV ("case,activity" rows; trace-lines event names are
//     whitespace-separated, so a comma there would be part of an event name,
//     which the CSV reader would also accept);
//   - everything else is trace lines, the default ingestion format.
//
// Empty content sniffs as trace lines (an empty log in every format).
func SniffFormat(data []byte) string {
	if len(data) > sniffLimit {
		data = data[:sniffLimit]
	}
	data = bytes.TrimPrefix(data, []byte(utf8BOM))
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '<' {
		return FormatXES
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Contains(line, ",") {
			return FormatCSV
		}
		return FormatTraceLines
	}
	return FormatTraceLines
}
