package server

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"eventmatch/internal/server/tenant"
)

// Handler returns the daemon's HTTP handler. Routes use the Go 1.22 method
// and wildcard patterns of net/http.ServeMux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", byID(s.jobs, "job", s.handleStatus))
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", byID(s.jobs, "job", s.handleResult))
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", byID(s.jobs, "job", s.handleCancel))
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", byID(s.jobs, "job", s.handleCancel))
	mux.HandleFunc("POST /api/v1/sessions", s.handleSessionOpen)
	mux.HandleFunc("POST /api/v1/sessions/{id}/events", s.handleSessionAppend)
	mux.HandleFunc("GET /api/v1/sessions/{id}", byID(s.sessions, "session", s.handleSessionStatus))
	mux.HandleFunc("GET /api/v1/sessions/{id}/watch", byID(s.sessions, "session", s.handleSessionWatch))
	mux.HandleFunc("POST /api/v1/sessions/{id}/close", byID(s.sessions, "session", s.handleSessionClose))
	mux.HandleFunc("DELETE /api/v1/sessions/{id}", byID(s.sessions, "session", s.handleSessionAbort))
	mux.HandleFunc("GET /api/v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// byID resolves the {id} path value in reg before calling h, answering 404
// for unknown ids.
func byID[T lifecycled](reg *registry[T], what string, h func(http.ResponseWriter, *http.Request, T)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		item, ok := reg.get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown "+what)
			return
		}
		h(w, r, item)
	}
}

// handleSubmit admits a job: the shared admission steps (over-limit floods
// are turned away before their body is even parsed), full validation (bad
// input never reaches a worker), then a slot in the tenant's queue or a fast
// failure.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	ten, ok := s.admit(w, r, nil)
	if !ok {
		return
	}
	spec, err := s.parseSubmit(r)
	if err != nil {
		writeError(w, bodyErrorCode(err), err.Error())
		return
	}
	spec.tenant = ten
	j, err := s.submit(r.Context(), spec)
	if err != nil {
		s.writePushError(w, err, "job queue full", "tenant queue full")
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// writePushError answers a failed dispatcher push: 429 with the server's
// Retry-After estimate when the queue is full (tenantMsg when it is the
// tenant's own lane), 503 while draining, 500 otherwise.
func (s *Server) writePushError(w http.ResponseWriter, err error, fullMsg, tenantMsg string) {
	switch {
	case errors.Is(err, errTenantSaturated):
		write429(w, ErrorResponse{Error: tenantMsg, Reason: ReasonQueueFull}, s.queueFullRetrySec())
	case errors.Is(err, errSaturated):
		write429(w, ErrorResponse{Error: fullMsg, Reason: ReasonQueueFull}, s.queueFullRetrySec())
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// admit runs the admission steps every work-creating request shares, and
// answers the client itself when one refuses: the drain check (503); target,
// when non-nil, which looks up the resource the request adds to and returns
// its owner (writing its own rejection when it fails); the request's tenant
// (400), held to that owner (403); the tenant's rate budget (429); and the
// MaxUploadBytes body cap.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, target func() (owner string, ok bool)) (string, bool) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return "", false
	}
	owner := ""
	if target != nil {
		var ok bool
		if owner, ok = target(); !ok {
			return "", false
		}
	}
	ten, err := requestTenant(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return "", false
	}
	if owner != "" && ten != owner {
		writeError(w, http.StatusForbidden, "session belongs to another tenant")
		return "", false
	}
	now := time.Now()
	if ok, retryAt := s.limiter.Allow(ten, now); !ok {
		s.rateLimited.Inc()
		s.tenantStats(ten).rejectedRate.Inc()
		// The hint is the limiter's earliest-admissible instant — unlike the
		// queue-full hint it is exact, not an estimate.
		write429(w, ErrorResponse{Error: "rate limited", Reason: ReasonRateLimited},
			tenant.RetryAfter(now, retryAt))
		return "", false
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	return ten, true
}

// bodyErrorCode maps a request-body error to its status: 413 when the body
// ran past the MaxUploadBytes cap, 400 for anything else.
func bodyErrorCode(err error) int {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeJSON decodes a JSON request body into v, answering the client
// itself (bodyErrorCode) when that fails.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeError(w, bodyErrorCode(err), "parsing request: "+err.Error())
		return false
	}
	return true
}

// write429 sends one rejection with its Retry-After both as a header and in
// the JSON body.
func write429(w http.ResponseWriter, resp ErrorResponse, retryAfterSec int) {
	resp.RetryAfterSec = retryAfterSec
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
	writeJSON(w, http.StatusTooManyRequests, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.all()
	resp := ListResponse{Jobs: make([]JobStatus, 0, len(jobs))}
	for _, j := range jobs {
		resp.Jobs = append(resp.Jobs, j.status())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, j *job) {
	writeJSON(w, http.StatusOK, j.status())
}

// handleResult serves the terminal outcome. Non-terminal jobs answer 409 so
// a poller can distinguish "not yet" from "gone wrong".
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request, j *job) {
	state, res, errMsg := j.snapshot()
	switch state {
	case StateDone:
		writeJSON(w, http.StatusOK, res)
	case StateFailed:
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{
			Error: errMsg, State: state,
		})
	case StateCanceled:
		writeJSON(w, http.StatusGone, ErrorResponse{
			Error: "job canceled before it started; no result",
			State: state, StopReason: "canceled",
		})
	default:
		writeJSON(w, http.StatusConflict, ErrorResponse{
			Error: fmt.Sprintf("job is %s; poll until terminal", state),
			State: state,
		})
	}
}

// handleCancel delivers a cancellation. Cancelling an already-terminal job
// is a no-op that still reports the job's status — cancellation is
// idempotent from the client's side.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request, j *job) {
	if j.requestCancel() {
		s.canceled.Inc()
		s.tenantStats(j.spec.tenant).canceled.Inc()
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// queueFullRetrySec renders the server's Retry-After estimate as whole
// seconds (floored at 1) for queue-full rejections.
func (s *Server) queueFullRetrySec() int {
	sec := int(s.retryAfter().Seconds() + 0.5)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// handleSessionOpen admits a streaming session through the same admission
// steps and full validation as a job submission — plus the live-session cap
// (sessions hold a writer goroutine for their whole lifetime, so they are
// bounded separately from jobs).
func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	ten, ok := s.admit(w, r, nil)
	if !ok {
		return
	}
	var req OpenSessionRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	// Reserve the live slot before the build, so concurrent opens cannot
	// all pass the check and overshoot MaxSessions.
	if !s.sessions.reserve(s.cfg.MaxSessions) {
		s.sessRejected.Inc()
		write429(w, ErrorResponse{Error: "session limit reached", Reason: ReasonQueueFull},
			s.queueFullRetrySec())
		return
	}
	ss, err := s.openSession(r.Context(), req, ten)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, ss.status())
}

// handleSessionAppend admits one chunk of target traces. The backlog bound is
// per session: a client more than SessionBacklog traces ahead of the last
// published mapping gets 429 until the matcher catches up.
func (s *Server) handleSessionAppend(w http.ResponseWriter, r *http.Request) {
	var ss *streamSession
	if _, ok := s.admit(w, r, func() (string, bool) {
		var found bool
		if ss, found = s.sessions.get(r.PathValue("id")); !found {
			writeError(w, http.StatusNotFound, "unknown session")
			return "", false
		}
		return ss.spec.tenant, true
	}); !ok {
		return
	}
	var req SessionAppendRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	traces, err := parseSessionTraces(req.Traces)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	accepted, err := s.appendSession(ss, traces)
	switch {
	case errors.Is(err, errSessionClosing):
		writeError(w, http.StatusConflict, "session is closing; no further appends")
	case errors.Is(err, errSessionTerminal):
		writeError(w, http.StatusGone, "session is terminal")
	case err != nil:
		if errors.Is(err, errSaturated) {
			s.sessRejected.Inc()
		}
		s.writePushError(w, err, "session backlog full", "tenant append queue full")
	default:
		writeJSON(w, http.StatusAccepted, SessionAppendResponse{Accepted: accepted})
	}
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request, ss *streamSession) {
	writeJSON(w, http.StatusOK, ss.status())
}

// handleSessionWatch streams mapping updates as JSON lines until the session
// ends or the client disconnects. The latest update is replayed first, so a
// new watcher starts from the current state.
func (s *Server) handleSessionWatch(w http.ResponseWriter, r *http.Request, ss *streamSession) {
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	id, ch, live := ss.addWatcher()
	if live {
		defer ss.removeWatcher(id)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	enc := json.NewEncoder(w)
	for {
		select {
		case up, open := <-ch:
			if !open {
				return
			}
			if err := enc.Encode(up); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleSessionClose starts the clean drain and waits (bounded by the request
// context) for the terminal state: 200 with the final status when the drain
// finished in time, 202 when it is still converging — poll the status
// endpoint for the final mapping.
func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request, ss *streamSession) {
	s.closeSession(ss)
	select {
	case <-ss.ended:
	case <-r.Context().Done():
	}
	st := ss.status()
	code := http.StatusOK
	if !st.State.Terminal() {
		code = http.StatusAccepted
	}
	writeJSON(w, code, st)
}

// handleSessionAbort terminates a session immediately; idempotent like job
// cancellation — aborting a terminal session just reports its status.
func (s *Server) handleSessionAbort(w http.ResponseWriter, r *http.Request, ss *streamSession) {
	s.abortSession(ss, true)
	writeJSON(w, http.StatusOK, ss.status())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.reg.WriteJSON(w); err != nil {
		// Headers are gone; nothing useful left to send.
		return
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg})
}
