package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"eventmatch/internal/event"
	"eventmatch/internal/match"
	"eventmatch/internal/server/tenant"
	"eventmatch/internal/stream"

	"eventmatch"
)

// This file is the serving layer over internal/stream: long-lived streaming
// sessions. A session fixes the source log and pattern set at open time;
// target traces arrive in chunks through the events endpoint, are admitted
// through the same tenancy surface as jobs (rate limiter + weighted-fair
// queue), journaled as deltas (replayable after a crash), and folded into the
// session's single-writer matching core, which re-searches seeded from the
// previous published mapping and pushes every new mapping to watchers.
//
// Lock order: registry.mu → streamSession.mu. The stream.Session core is
// never called under streamSession.mu when the call can wait on the writer
// (Close, Abort) — the writer's OnUpdate callback takes streamSession.mu.

// streamSession is one live (or terminal) streaming session.
type streamSession struct {
	id      string
	spec    fixedSpec
	created time.Time

	// core is the single-writer matching session; nil for sessions restored
	// in a terminal state (status is served from the journaled final record).
	core *stream.Session

	mu    sync.Mutex
	cond  *sync.Cond // broadcast on schedQueued changes (finalizeSession waits on it)
	state SessionState
	// accepted counts admitted target traces; schedQueued the subset still in
	// the fair queue (admitted, not yet handed to the core). The admission
	// backlog check compares accepted against the last published revision, so
	// a client cannot run more than SessionBacklog traces ahead of the
	// matcher.
	accepted    int
	schedQueued int
	last        *SessionUpdate
	errMsg      string

	watchers  map[int]chan SessionUpdate
	nextWatch int
	ended     chan struct{} // closed by the terminal transition
}

// newStreamSession builds a session record without a core; startSession
// attaches one, recovery leaves terminal sessions without.
func newStreamSession(spec fixedSpec, created time.Time, state SessionState, accepted int) *streamSession {
	ss := &streamSession{
		spec:     spec,
		created:  created,
		state:    state,
		accepted: accepted,
		watchers: make(map[int]chan SessionUpdate),
		ended:    make(chan struct{}),
	}
	ss.cond = sync.NewCond(&ss.mu)
	if state.Terminal() {
		close(ss.ended)
	}
	return ss
}

func (ss *streamSession) setID(id string) { ss.id = id }

// terminal reports whether the session reached a final state (registry
// eviction and the live-session count).
func (ss *streamSession) terminal() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.state.Terminal()
}

func (ss *streamSession) statusLocked() SessionStatus {
	st := SessionStatus{
		ID:        ss.id,
		State:     ss.state,
		Algorithm: ss.spec.algoName,
		Tenant:    ss.spec.tenant,
		Created:   stamp(ss.created),
		Accepted:  ss.accepted,
		Error:     ss.errMsg,
	}
	if ss.last != nil {
		up := *ss.last
		st.Update = &up
	}
	if ss.core != nil {
		// The core's lock is never held while this one is taken (OnUpdate
		// runs after the core unlocks), so taking it here cannot deadlock.
		n, err := ss.core.SearchFailures()
		st.FailedSearches = n
		if err != nil && st.Error == "" {
			st.Error = err.Error()
		}
	}
	return st
}

func (ss *streamSession) status() SessionStatus {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.statusLocked()
}

// publish records an update as the session's latest state and fans it out to
// watchers (non-blocking: a slow watcher drops intermediate updates, never
// the stream — the next update carries the newer mapping anyway).
func (ss *streamSession) publish(up SessionUpdate) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	cp := up
	ss.last = &cp
	ss.errMsg = ""
	for _, ch := range ss.watchers {
		select {
		case ch <- up:
		default:
		}
	}
	ss.cond.Broadcast()
}

// addWatcher registers a watch channel and replays the latest update into it.
// The returned id unregisters via removeWatcher. ok is false when the session
// is terminal — the caller got the final state (if any) and must not wait.
func (ss *streamSession) addWatcher() (int, chan SessionUpdate, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ch := make(chan SessionUpdate, 32)
	if ss.last != nil {
		//matchlint:ignore lockheld -- ch is freshly made and buffered; a single-element send cannot block
		ch <- *ss.last
	}
	if ss.state.Terminal() {
		close(ch)
		return 0, ch, false
	}
	id := ss.nextWatch
	ss.nextWatch++
	ss.watchers[id] = ch
	return id, ch, true
}

func (ss *streamSession) removeWatcher(id int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	delete(ss.watchers, id)
}

// endLocked is the terminal transition: set the final state, end every
// watch stream and release everyone waiting on ended.
func (ss *streamSession) endLocked(state SessionState) {
	ss.state = state
	for id, ch := range ss.watchers {
		close(ch)
		delete(ss.watchers, id)
	}
	close(ss.ended)
}

// sessAppend is one admitted chunk on its way from the HTTP handler to its
// session's core.
type sessAppend struct {
	sess   *streamSession
	traces [][]string
}

// openSession validates an open request into a live session. The caller
// reserved a live slot; the session takes it, or a failed build returns it.
// reqCtx bounds the submission-side persists only.
func (s *Server) openSession(reqCtx context.Context, req OpenSessionRequest, ten string) (*streamSession, error) {
	spec, err := s.buildSessionSpec(req)
	var ss *streamSession
	if err == nil {
		spec.tenant = tenant.Normalize(ten)
		ss, err = s.startSession(spec, time.Now(), 0, s.cfg.SessionBacklog)
	}
	if err != nil {
		s.sessions.release()
		return nil, err
	}
	s.sessions.addReserved(ss)
	s.persistSessionOpen(reqCtx, ss)
	s.sessOpened.Inc()
	s.tenantStats(spec.tenant).submitted.Inc()
	return ss, nil
}

// buildSessionSpec validates the fixed side of a session, admitting only the
// algorithms that can re-search incrementally.
func (s *Server) buildSessionSpec(req OpenSessionRequest) (fixedSpec, error) {
	spec, _, err := s.buildFixed(req, eventmatch.AlgoExact, func(algo eventmatch.Algorithm) error {
		switch algo {
		case eventmatch.AlgoExact, eventmatch.AlgoHeuristicAdvanced, eventmatch.AlgoVertexEdge:
			return nil
		}
		return fmt.Errorf("algorithm %q does not support streaming sessions (want exact, heuristic-advanced or vertex-edge)", req.Algorithm)
	})
	return spec, err
}

// startSession builds the matching core around a validated spec, over an
// empty target log (recovery replays its deltas afterwards); accepted counts
// the traces the session already admitted; maxPending sizes the core's inbox.
func (s *Server) startSession(spec fixedSpec, created time.Time, accepted, maxPending int) (*streamSession, error) {
	ss := newStreamSession(spec, created, SessionOpen, accepted)

	mode, bound, search := searchFor(spec.algorithm)
	core, err := stream.NewSession(stream.SessionConfig{
		L1:       spec.l1,
		L2:       event.NewLog(),
		Patterns: spec.bound,
		Mode:     mode,
		Options: match.Options{
			Bound:       bound,
			MaxDuration: spec.timeout,
			Workers:     s.cfg.SearchWorkers,
			Telemetry:   s.reg,
		},
		Search: func(ctx context.Context, pr *match.Problem, o match.Options) (match.Mapping, match.Stats, error) {
			return search(pr, ctx, o)
		},
		MaxPending: maxPending,
		// OnUpdate runs on the core's writer goroutine, the only place the
		// live target alphabet may be read — names are rendered here, not at
		// serving time.
		OnUpdate: func(up stream.Update) {
			_, l2live := ss.core.Logs()
			ss.publish(SessionUpdate{
				Revision:   up.Revision,
				Pairs:      namePairs(spec.l1, l2live, up.Mapping),
				Score:      up.Score,
				Truncated:  up.Stats.Truncated,
				StopReason: up.Stats.StopReason,
				Final:      up.Final,
			})
			s.sessUpdates.Inc()
		},
	})
	if err != nil {
		return nil, err
	}
	ss.mu.Lock()
	ss.core = core
	ss.mu.Unlock()
	return ss, nil
}

// appendSession admits one chunk into a session: backlog check, fair-queue
// push, then the delta journal record — all under the session mutex, so the
// journal's delta order is exactly the admission (and therefore apply) order,
// and a rejected push is never journaled.
func (s *Server) appendSession(ss *streamSession, traces [][]string) (int, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	switch {
	case ss.state == SessionClosing:
		return 0, errSessionClosing
	case ss.state.Terminal():
		return 0, errSessionTerminal
	}
	lastRev := 0
	if ss.last != nil {
		lastRev = ss.last.Revision
	}
	if ss.accepted-lastRev+len(traces) > s.cfg.SessionBacklog {
		return 0, errSaturated
	}
	if err := s.appendQueue.push(ss.spec.tenant, sessAppend{sess: ss, traces: traces}); err != nil {
		return 0, err
	}
	s.persistSessionDelta(ss, traces)
	ss.accepted += len(traces)
	ss.schedQueued += len(traces)
	s.sessAppends.Add(int64(len(traces)))
	return ss.accepted, nil
}

// applySessionAppend is the dispatcher side: hand the chunk to the session's
// core. The per-session backlog invariant guarantees the core inbox has room,
// so an error here means the session went terminal between admission and
// dispatch — the chunk is dropped, which is exactly abort semantics.
func (s *Server) applySessionAppend(a sessAppend) {
	_, err := a.sess.core.Append(a.traces...)
	a.sess.mu.Lock()
	a.sess.schedQueued -= len(a.traces)
	if err != nil && !errors.Is(err, stream.ErrSessionClosed) {
		a.sess.errMsg = err.Error()
	}
	a.sess.cond.Broadcast()
	a.sess.mu.Unlock()
}

// closeSession begins a clean drain: no new appends, and a finalizer
// goroutine waits for the queued chunks to reach the core, drains the core,
// journals the terminal record and wakes everyone polling for the terminal
// state. Idempotent — later calls just observe the transition.
func (s *Server) closeSession(ss *streamSession) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.state != SessionOpen {
		return
	}
	ss.state = SessionClosing
	go s.finalizeSession(ss)
}

func (s *Server) finalizeSession(ss *streamSession) {
	ss.mu.Lock()
	for ss.schedQueued > 0 && ss.state == SessionClosing {
		ss.cond.Wait()
	}
	ss.mu.Unlock()
	// The core drain is bounded by the per-search deadline (every re-search
	// has a MaxDuration), so an unbounded context here cannot hang shutdown.
	_, err := ss.core.Close(context.Background())
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.state != SessionClosing { // aborted while draining
		return
	}
	if err == nil {
		// OnUpdate already published the final marker, so ss.last is final.
		s.persistSessionClose(ss, string(SessionClosed))
		ss.endLocked(SessionClosed)
		s.sessClosed.Inc()
		s.tenantStats(ss.spec.tenant).completed.Inc()
	} else {
		ss.errMsg = err.Error()
		s.persistSessionClose(ss, string(SessionAborted))
		ss.endLocked(SessionAborted)
		s.sessAborted.Inc()
	}
}

// abortSession terminates a session immediately: pending chunks are dropped,
// the in-flight search is canceled and discarded. journal=false is the
// shutdown path — the session must recover as open on the next boot, so no
// terminal record is written.
func (s *Server) abortSession(ss *streamSession, journal bool) bool {
	ss.mu.Lock()
	if ss.state != SessionOpen || ss.core == nil {
		ss.mu.Unlock()
		return false
	}
	ss.state = SessionAborted
	core := ss.core
	ss.mu.Unlock()
	core.Abort() // outside ss.mu: Abort waits on the writer, which publishes under ss.mu
	ss.mu.Lock()
	if journal {
		s.persistSessionClose(ss, string(SessionAborted))
	}
	ss.endLocked(SessionAborted)
	ss.mu.Unlock()
	if journal {
		s.sessAborted.Inc()
		s.tenantStats(ss.spec.tenant).canceled.Inc()
	}
	return true
}

// shutdownSessions tears the streaming layer down for a drain: stop append
// admission, let the dispatchers empty the queue, then abort every live core
// WITHOUT journaling a terminal state — open sessions must come back on the
// next boot, rebuilt from their journaled deltas.
func (s *Server) shutdownSessions() {
	s.appendQueue.drain()
	for _, ss := range s.sessions.all() {
		s.abortSession(ss, false)
		// Sessions mid-close: their finalizer owns the terminal transition;
		// the core drain is deadline-bounded, so just wait it out.
		<-ss.ended
	}
}

// parseSessionTraces validates the wire form of a chunk: each trace a
// non-empty space-separated line of event names.
func parseSessionTraces(lines []string) ([][]string, error) {
	if len(lines) == 0 {
		return nil, fmt.Errorf("traces must be non-empty")
	}
	out := make([][]string, len(lines))
	for i, line := range lines {
		names := strings.Fields(line)
		if len(names) == 0 {
			return nil, fmt.Errorf("trace %d is empty", i)
		}
		out[i] = names
	}
	return out, nil
}

// sessionTraceLines renders id-level traces back to their wire/journal form.
func sessionTraceLines(traces [][]string) []string {
	lines := make([]string, len(traces))
	for i, tr := range traces {
		lines[i] = strings.Join(tr, " ")
	}
	return lines
}

// Session admission errors (HTTP layer maps them onto status codes).
var (
	errSessionClosing  = errors.New("server: session is closing")
	errSessionTerminal = errors.New("server: session is terminal")
)
