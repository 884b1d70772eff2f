package server

import (
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"strconv"
	"strings"
	"time"

	"eventmatch/internal/event"
	"eventmatch/internal/logio"
	"eventmatch/internal/match"

	"eventmatch"
)

// parseSubmit turns an HTTP submission (JSON body or multipart upload) into
// a fully validated jobSpec. Every error returned here is a client error.
func (s *Server) parseSubmit(r *http.Request) (jobSpec, error) {
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	var (
		req SubmitRequest
		err error
	)
	if ct == "multipart/form-data" {
		req, err = decodeMultipart(r, s.cfg.MaxUploadBytes)
	} else {
		err = json.NewDecoder(r.Body).Decode(&req)
		if err != nil {
			err = fmt.Errorf("decoding JSON body: %w", err)
		}
	}
	if err != nil {
		return jobSpec{}, err
	}
	return s.buildSpec(req)
}

// decodeMultipart maps a form upload onto SubmitRequest: file parts "log1"
// and "log2" (format from the file name when recognizable, content-sniffed
// otherwise), optional file-or-field "patterns" (newline-separated) and
// "truth" ("NAME1 -> NAME2" lines, the truth.txt convention), and the scalar
// options as plain form values.
func decodeMultipart(r *http.Request, maxBytes int64) (SubmitRequest, error) {
	var req SubmitRequest
	// Files up to maxBytes spill to disk past a small memory window;
	// MaxBytesReader on the body already bounds the total.
	if err := r.ParseMultipartForm(4 << 20); err != nil {
		return req, fmt.Errorf("parsing multipart form: %w", err)
	}
	defer r.MultipartForm.RemoveAll() //nolint:errcheck // best-effort temp cleanup

	var err error
	if req.Log1, err = formLog(r, "log1"); err != nil {
		return req, err
	}
	if req.Log2, err = formLog(r, "log2"); err != nil {
		return req, err
	}
	patterns, err := formText(r, "patterns")
	if err != nil {
		return req, err
	}
	for _, line := range strings.Split(patterns, "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			req.Patterns = append(req.Patterns, line)
		}
	}
	truth, err := formText(r, "truth")
	if err != nil {
		return req, err
	}
	if req.Truth, err = parseTruthLines(truth); err != nil {
		return req, err
	}

	req.Algorithm = r.FormValue("algorithm")
	req.Lenient = r.FormValue("lenient") == "true" || r.FormValue("lenient") == "1"
	for _, f := range []struct {
		name string
		dst  *int
	}{
		{"max_generated", &req.MaxGenerated},
		{"max_frontier", &req.MaxFrontier},
		{"workers", &req.Workers},
	} {
		if v := r.FormValue(f.name); v != "" {
			if *f.dst, err = strconv.Atoi(v); err != nil {
				return req, fmt.Errorf("form field %s: %w", f.name, err)
			}
		}
	}
	if v := r.FormValue("timeout_ms"); v != "" {
		if req.TimeoutMS, err = strconv.ParseInt(v, 10, 64); err != nil {
			return req, fmt.Errorf("form field timeout_ms: %w", err)
		}
	}
	return req, nil
}

// formLog reads a required uploaded log file part.
func formLog(r *http.Request, name string) (LogPayload, error) {
	f, hdr, err := r.FormFile(name)
	if err != nil {
		return LogPayload{}, fmt.Errorf("file part %q: %w", name, err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return LogPayload{}, fmt.Errorf("reading %q: %w", name, err)
	}
	return LogPayload{Format: formatFromName(hdr), Data: string(data)}, nil
}

// formatFromName maps an upload's file name to a format, or "" (sniff) when
// the extension is unrecognizable.
func formatFromName(hdr *multipart.FileHeader) string {
	if hdr == nil || hdr.Filename == "" {
		return ""
	}
	switch strings.ToLower(hdr.Filename[strings.LastIndex(hdr.Filename, ".")+1:]) {
	case "csv":
		return logio.FormatCSV
	case "xes", "xml":
		return logio.FormatXES
	case "log", "txt":
		return logio.FormatTraceLines
	}
	return ""
}

// formText reads an optional part that may arrive as a file upload or a
// plain form value.
func formText(r *http.Request, name string) (string, error) {
	if f, _, err := r.FormFile(name); err == nil {
		defer f.Close()
		data, err := io.ReadAll(f)
		if err != nil {
			return "", fmt.Errorf("reading %q: %w", name, err)
		}
		return string(data), nil
	}
	return r.FormValue(name), nil
}

// parseTruthLines parses "NAME1 -> NAME2" lines (loggen's truth.txt format;
// a bare "NAME1 NAME2" pair per line is accepted too).
func parseTruthLines(text string) (map[string]string, error) {
	out := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var a, b string
		if i := strings.Index(line, "->"); i >= 0 {
			a, b = strings.TrimSpace(line[:i]), strings.TrimSpace(line[i+2:])
		} else if fields := strings.Fields(line); len(fields) == 2 {
			a, b = fields[0], fields[1]
		}
		if a == "" || b == "" {
			return nil, fmt.Errorf("truth line %q: want \"NAME1 -> NAME2\"", line)
		}
		out[a] = b
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// buildSpec validates a decoded submission into an executable spec: the
// shared fixed side (buildFixed), then the target log (through the
// content-hash cache), the ground truth resolved to event ids, and the
// budgets clamped to the server's limits.
func (s *Server) buildSpec(req SubmitRequest) (jobSpec, error) {
	var (
		spec jobSpec
		err  error
	)
	spec.fixedSpec, spec.rep1, err = s.buildFixed(OpenSessionRequest{
		Log1:      req.Log1,
		Patterns:  req.Patterns,
		Algorithm: req.Algorithm,
		TimeoutMS: req.TimeoutMS,
		Lenient:   req.Lenient,
	}, eventmatch.AlgoHeuristicAdvanced, nil)
	if err != nil {
		return spec, err
	}
	if spec.l2, spec.rep2, spec.h2, spec.fmt2, err = s.ingest("log2", req.Log2, req.Lenient); err != nil {
		return spec, err
	}
	if len(req.Truth) > 0 {
		// A truth entry that can never be scored is almost certainly a typo.
		if spec.truth, err = resolvePairs(req.Truth, spec.l1, spec.l2); err != nil {
			return spec, fmt.Errorf("truth: %w", err)
		}
		spec.truthNames = req.Truth
	}
	if req.MaxGenerated < 0 || req.MaxFrontier < 0 {
		return spec, fmt.Errorf("max_generated and max_frontier must be non-negative")
	}
	spec.maxGenerated = req.MaxGenerated
	spec.maxFrontier = req.MaxFrontier
	spec.workers = s.cfg.SearchWorkers
	if req.Workers > 0 {
		spec.workers = req.Workers
		if spec.workers > s.cfg.SearchWorkers && s.cfg.SearchWorkers > 0 {
			spec.workers = s.cfg.SearchWorkers
		}
	}
	return spec, nil
}

// buildFixed validates the side jobs and sessions share: resolve the
// algorithm (def when unnamed; allow, when non-nil, vets it before anything
// is ingested), parse the source log through the content-hash cache, bind
// the patterns against its alphabet so pattern errors surface at admission
// rather than on a worker, and clamp the deadline to the server's maximum.
// req holds exactly the fields a submission shares with an open request.
// It also returns the source log's read report.
func (s *Server) buildFixed(req OpenSessionRequest, def eventmatch.Algorithm, allow func(eventmatch.Algorithm) error) (fixedSpec, logio.ReadReport, error) {
	spec := fixedSpec{algoName: req.Algorithm, lenient: req.Lenient, patterns: req.Patterns}
	var rep logio.ReadReport
	if spec.algoName == "" {
		spec.algoName = def.String()
	}
	var err error
	if spec.algorithm, err = eventmatch.ParseAlgorithm(spec.algoName); err != nil {
		return spec, rep, err
	}
	if allow != nil {
		if err := allow(spec.algorithm); err != nil {
			return spec, rep, err
		}
	}
	if spec.l1, rep, spec.h1, spec.fmt1, err = s.ingest("log1", req.Log1, req.Lenient); err != nil {
		return spec, rep, err
	}
	if bindsPatterns(spec.algorithm) {
		if spec.bound, err = eventmatch.BindPatterns(req.Patterns, spec.l1.Alphabet); err != nil {
			return spec, rep, err
		}
	}
	spec.timeout = s.cfg.DefaultDeadline
	if req.TimeoutMS > 0 {
		spec.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if spec.timeout > s.cfg.MaxDeadline {
			spec.timeout = s.cfg.MaxDeadline
		}
	}
	return spec, rep, nil
}

// bindsPatterns reports whether the algorithm matches with user patterns;
// the others ignore them.
func bindsPatterns(algo eventmatch.Algorithm) bool {
	switch algo {
	case eventmatch.AlgoVertex, eventmatch.AlgoVertexEdge, eventmatch.AlgoIterative, eventmatch.AlgoEntropy:
		return false
	}
	return true
}

// ingest parses one submitted log through the content-hash cache and, when a
// durable store is configured, persists the raw bytes as a content-addressed
// artifact so the job can be re-run after a crash. It returns the parsed
// log, the read report, the content key and the resolved format.
func (s *Server) ingest(name string, p LogPayload, lenient bool) (*event.Log, logio.ReadReport, string, string, error) {
	if p.Data == "" {
		return nil, logio.ReadReport{}, "", "", fmt.Errorf("%s: empty log", name)
	}
	format := p.Format
	if format == "" {
		format = logio.SniffFormat([]byte(p.Data))
	}
	switch format {
	case logio.FormatTraceLines, logio.FormatCSV, logio.FormatXES:
	default:
		return nil, logio.ReadReport{}, "", "", fmt.Errorf("%s: unknown format %q", name, format)
	}
	key := logKey(format, lenient, []byte(p.Data))
	pl, err := s.logs.get(key, func() (parsedLog, error) {
		l, rep, err := logio.ReadWithReport(strings.NewReader(p.Data), format, logio.ReadOptions{
			Lenient:     lenient,
			MaxLogBytes: s.cfg.MaxUploadBytes,
			Telemetry:   s.reg,
		})
		return parsedLog{l, rep}, err
	})
	if err != nil {
		return nil, pl.rep, "", "", fmt.Errorf("%s: %w", name, err)
	}
	if pl.log.NumEvents() == 0 {
		return nil, pl.rep, "", "", fmt.Errorf("%s: no events after parsing", name)
	}
	s.persistLogArtifact(key, []byte(p.Data))
	return pl.log, pl.rep, key, format, nil
}

// resolvePairs maps name pairs (a ground truth or a checkpoint) onto event
// ids, skipping names either log does not know; err reports the first one
// skipped.
func resolvePairs(pairs map[string]string, l1, l2 *event.Log) (match.Mapping, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	m := match.NewMapping(l1.NumEvents())
	var err error
	for n1, n2 := range pairs {
		v1, v2 := l1.Alphabet.Lookup(n1), l2.Alphabet.Lookup(n2)
		switch {
		case v1 != event.None && v2 != event.None:
			m[v1] = v2
		case err != nil:
		case v1 == event.None:
			err = fmt.Errorf("event %q not in log1's alphabet", n1)
		default:
			err = fmt.Errorf("event %q not in log2's alphabet", n2)
		}
	}
	return m, err
}
