// Package server implements eventmatchd: a long-running HTTP daemon that
// accepts event-matching jobs, runs them on a bounded worker pool behind an
// admission-controlled queue, and exposes an asynchronous job lifecycle —
// submit, poll, fetch result, cancel — over a small JSON API.
//
// The daemon is the serving layer over the repository's matching pipeline:
// jobs reuse the anytime/cancellable searches of internal/match, parsed logs
// and frequency caches are shared across jobs keyed by content hash (a
// repeated match over the same log pair skips ingestion and frequency
// counting entirely), and every pool, queue, cache and job metric lands in
// one internal/telemetry registry served back on /api/v1/metrics and expvar.
//
// # Endpoints
//
//	POST   /api/v1/jobs             submit a job (JSON or multipart upload)
//	GET    /api/v1/jobs             list known jobs
//	GET    /api/v1/jobs/{id}        job status, with in-flight progress
//	GET    /api/v1/jobs/{id}/result final mapping, score, quality metrics
//	POST   /api/v1/jobs/{id}/cancel cancel (DELETE /api/v1/jobs/{id} works too)
//	POST   /api/v1/sessions         open a streaming session (log1 + patterns)
//	POST   /api/v1/sessions/{id}/events  append target traces (chunked)
//	GET    /api/v1/sessions/{id}    session status with the latest mapping
//	GET    /api/v1/sessions/{id}/watch   server-push mapping updates (JSON lines)
//	POST   /api/v1/sessions/{id}/close   drain and return the final mapping
//	DELETE /api/v1/sessions/{id}    abort the session
//	GET    /api/v1/metrics          telemetry snapshot as JSON
//	GET    /healthz                 liveness ("ok", or "draining" + 503)
//	GET    /debug/vars              expvar, including the registry snapshot
//
// # Job lifecycle
//
// A job moves through queued → running → done | failed, with canceled
// reachable from queued (and from running via the anytime contract: a
// canceled running job still completes into done with a truncated,
// best-so-far result). See DESIGN.md §9 for the full state machine.
//
// # Backpressure
//
// Admission is a non-blocking reservation against a fixed-depth queue: when
// every worker is busy and the queue is full, submission fails fast with
// HTTP 429 and a Retry-After hint derived from the observed job service
// time. Nothing ever blocks the accept loop.
package server

import (
	"time"

	"eventmatch/internal/match"
)

// JobState is one node of the job lifecycle state machine.
type JobState string

// Job lifecycle states. Terminal states are StateDone, StateFailed and
// StateCanceled.
const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: a worker is executing the match.
	StateRunning JobState = "running"
	// StateDone: finished with a result (possibly truncated / best-so-far).
	StateDone JobState = "done"
	// StateFailed: finished with an error instead of a result.
	StateFailed JobState = "failed"
	// StateCanceled: canceled while still queued; no result exists. A job
	// canceled while running lands in StateDone with a truncated result
	// instead — the anytime searches always return their best mapping.
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// LogPayload is one log in a JSON submission.
type LogPayload struct {
	// Format is "log", "csv" or "xes"; empty means sniff from the content.
	Format string `json:"format,omitempty"`
	// Data is the raw log content.
	Data string `json:"data"`
}

// SubmitRequest is the JSON submission body. Multipart submissions carry the
// same fields as form values, with the two logs as file uploads named "log1"
// and "log2" (format detected from the file name, then sniffed).
type SubmitRequest struct {
	Log1 LogPayload `json:"log1"`
	Log2 LogPayload `json:"log2"`

	// Patterns are textual complex patterns over Log1's event names.
	Patterns []string `json:"patterns,omitempty"`

	// Truth, when non-empty, is a ground-truth mapping (Log1 event name →
	// Log2 event name); the result then carries precision/recall/F-measure
	// against it.
	Truth map[string]string `json:"truth,omitempty"`

	// Algorithm names the matching algorithm (eventmatch.ParseAlgorithm);
	// empty selects heuristic-advanced.
	Algorithm string `json:"algorithm,omitempty"`

	// TimeoutMS caps the search wall clock. Zero selects the server's
	// default per-job deadline; values above the server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// MaxGenerated and MaxFrontier are the search budgets of
	// eventmatch.Config, applied as given.
	MaxGenerated int `json:"max_generated,omitempty"`
	MaxFrontier  int `json:"max_frontier,omitempty"`

	// Workers parallelizes the search; values above the server's configured
	// per-job maximum are clamped. Zero selects the server default.
	Workers int `json:"workers,omitempty"`

	// Lenient makes log ingestion skip malformed rows instead of rejecting
	// the submission.
	Lenient bool `json:"lenient,omitempty"`
}

// ProgressInfo is the in-flight effort view of a running job, fed by the
// search's progress hook.
type ProgressInfo struct {
	Expanded  int   `json:"expanded"`
	Generated int   `json:"generated"`
	ElapsedMS int64 `json:"elapsed_ms"`
}

// JobStatus is the poll view of a job.
type JobStatus struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Algorithm string   `json:"algorithm"`
	// Tenant is the tenant identity the job was submitted under ("default"
	// for unidentified traffic).
	Tenant string `json:"tenant,omitempty"`

	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`

	// CancelRequested reports that a cancellation has been delivered but the
	// job has not yet reached a terminal state (the anytime search is
	// checkpointing its best-so-far mapping).
	CancelRequested bool `json:"cancel_requested,omitempty"`

	// Progress is the latest in-flight snapshot while running; nil before
	// the first snapshot and for the closed-form baselines.
	Progress *ProgressInfo `json:"progress,omitempty"`

	// Truncated/StopReason surface the anytime verdict once terminal.
	Truncated  bool   `json:"truncated,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`

	// Error carries the failure message in StateFailed.
	Error string `json:"error,omitempty"`
}

// ReadInfo summarizes one log's (possibly lenient) ingestion.
type ReadInfo struct {
	Traces        int `json:"traces"`
	SkippedRows   int `json:"skipped_rows,omitempty"`
	SkippedTraces int `json:"skipped_traces,omitempty"`
	Errors        int `json:"errors,omitempty"`
}

// QualityInfo is precision/recall/F-measure against a submitted ground truth.
type QualityInfo struct {
	Correct   int     `json:"correct"`
	Found     int     `json:"found"`
	Truth     int     `json:"truth"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	FMeasure  float64 `json:"f_measure"`
}

// JobResult is the final output of a done job.
type JobResult struct {
	ID        string `json:"id"`
	Algorithm string `json:"algorithm"`
	// Tenant is the tenant identity the job was submitted under.
	Tenant string `json:"tenant,omitempty"`

	// Pairs is the name-level mapping (Log1 event → Log2 event).
	Pairs map[string]string `json:"pairs"`
	// Score is the algorithm's objective value.
	Score float64 `json:"score"`

	Expanded  int   `json:"expanded"`
	Generated int   `json:"generated"`
	ElapsedMS int64 `json:"elapsed_ms"`

	// Truncated marks a best-so-far (anytime) result; StopReason names the
	// exhausted budget or the cancellation.
	Truncated  bool   `json:"truncated,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`

	// Quality is present when the submission carried a ground truth.
	Quality *QualityInfo `json:"quality,omitempty"`

	// Read1/Read2 report ingestion (present when anything was skipped).
	Read1 *ReadInfo `json:"read1,omitempty"`
	Read2 *ReadInfo `json:"read2,omitempty"`
}

// ListResponse is the GET /api/v1/jobs body.
type ListResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// SessionState is one node of the streaming-session lifecycle: open →
// closing → closed, with aborted reachable from open and closing.
type SessionState string

// Streaming-session lifecycle states.
const (
	// SessionOpen: accepting appends, publishing mapping updates.
	SessionOpen SessionState = "open"
	// SessionClosing: a close is draining the append backlog; no new appends.
	SessionClosing SessionState = "closing"
	// SessionClosed: drained cleanly; the final mapping is available.
	SessionClosed SessionState = "closed"
	// SessionAborted: terminated without draining; no final mapping.
	SessionAborted SessionState = "aborted"
)

// Terminal reports whether the session state is final.
func (s SessionState) Terminal() bool {
	return s == SessionClosed || s == SessionAborted
}

// OpenSessionRequest is the POST /api/v1/sessions body: the fixed side of an
// incremental matching problem. Target traces arrive later through the
// events endpoint.
type OpenSessionRequest struct {
	// Log1 is the source log; its alphabet is fixed for the session.
	Log1 LogPayload `json:"log1"`
	// Patterns are textual complex patterns over Log1's event names.
	Patterns []string `json:"patterns,omitempty"`
	// Algorithm selects the per-delta re-search: "exact" (A*, the default),
	// "heuristic-advanced", or "vertex-edge" (A* without user patterns).
	Algorithm string `json:"algorithm,omitempty"`
	// TimeoutMS caps each incremental re-search (not the session). Zero
	// selects the server default; values above the maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Lenient makes Log1 ingestion skip malformed rows.
	Lenient bool `json:"lenient,omitempty"`
}

// SessionAppendRequest is the POST /api/v1/sessions/{id}/events body: a
// chunk of target traces, each a space-separated line of event names (the
// trace-lines log format). New event names are interned on arrival.
type SessionAppendRequest struct {
	Traces []string `json:"traces"`
}

// SessionAppendResponse acknowledges an admitted chunk.
type SessionAppendResponse struct {
	// Accepted is the total number of target traces the session has admitted
	// so far (not just this chunk).
	Accepted int `json:"accepted"`
}

// SessionUpdate is one published mapping state, served from the status
// endpoint and pushed as JSON lines from the watch endpoint.
type SessionUpdate struct {
	// Revision is the number of target traces the mapping reflects.
	Revision int `json:"revision"`
	// Pairs is the name-level mapping (Log1 event → target event).
	Pairs map[string]string `json:"pairs"`
	// Score is the mapping's pattern normal distance.
	Score float64 `json:"score"`
	// Truncated/StopReason surface the anytime verdict of the re-search that
	// produced this update.
	Truncated  bool   `json:"truncated,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
	// Final marks the last update of a cleanly closed session.
	Final bool `json:"final,omitempty"`
}

// SessionStatus is the poll view of a streaming session.
type SessionStatus struct {
	ID        string       `json:"id"`
	State     SessionState `json:"state"`
	Algorithm string       `json:"algorithm"`
	Tenant    string       `json:"tenant,omitempty"`
	Created   string       `json:"created"`

	// Accepted is the total number of admitted target traces; Update (when
	// present) reflects the first Update.Revision of them. Accepted >
	// Update.Revision means the session is still converging.
	Accepted int            `json:"accepted"`
	Update   *SessionUpdate `json:"update,omitempty"`

	// Error carries the most recent append or re-search failure, if any
	// (the session keeps running; the next append retries).
	Error string `json:"error,omitempty"`
	// FailedSearches counts the re-searches that failed since the session
	// started in this process. A failed re-search publishes nothing, so
	// Update stays at the last successful one.
	FailedSearches int `json:"failed_searches,omitempty"`
}

// Rejection reasons carried in ErrorResponse.Reason on HTTP 429, so clients
// can distinguish backpressure (queue full: capacity will free as jobs
// finish) from policy (rate limited: the tenant must slow down) without
// parsing the message.
const (
	// ReasonQueueFull: the admission queue (aggregate or the tenant's own
	// slice of it) is at capacity. Retry-After derives from the observed job
	// service time.
	ReasonQueueFull = "queue_full"
	// ReasonRateLimited: the tenant exceeded a configured rate window.
	// Retry-After derives from the limiter's earliest-admissible instant.
	ReasonRateLimited = "rate_limited"
)

// ErrorResponse is the body of every non-2xx API response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Reason machine-tags HTTP 429 rejections: ReasonQueueFull or
	// ReasonRateLimited.
	Reason string `json:"reason,omitempty"`
	// RetryAfterSec accompanies HTTP 429: the suggested backoff, also sent
	// as a Retry-After header.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
	// State carries the job's lifecycle state on result-endpoint errors, so
	// clients can distinguish "terminal, no result will ever exist" (failed,
	// canceled) from "not yet" (queued, running) without parsing the message.
	State JobState `json:"state,omitempty"`
	// StopReason names what ended the job when that is known (e.g.
	// "canceled" for a job canceled before it started).
	StopReason string `json:"stop_reason,omitempty"`
}

// progressInfo converts a search snapshot to its wire form.
func progressInfo(p match.Progress) *ProgressInfo {
	return &ProgressInfo{
		Expanded:  p.Expanded,
		Generated: p.Generated,
		ElapsedMS: p.Elapsed.Milliseconds(),
	}
}

// stamp renders a timestamp for the status DTO; zero times render empty.
func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}
