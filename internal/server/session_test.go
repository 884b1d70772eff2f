package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"eventmatch/internal/event"
	"eventmatch/internal/gen"
	"eventmatch/internal/logio"
	"eventmatch/internal/match"
	"eventmatch/internal/stream"

	"eventmatch"
)

// fig1SessionRequest renders Fig. 1's fixed side (source log + patterns) as
// an open-session body; the returned lines are the target traces to stream.
func fig1SessionRequest(t *testing.T, algorithm string) (OpenSessionRequest, []string) {
	t.Helper()
	g := gen.Fig1()
	render := func(l *eventmatch.Log) string {
		var b strings.Builder
		if err := logio.Write(&b, l, logio.FormatTraceLines); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	var lines []string
	for _, ln := range strings.Split(render(g.L2), "\n") {
		if strings.TrimSpace(ln) != "" {
			lines = append(lines, ln)
		}
	}
	return OpenSessionRequest{
		Log1:      LogPayload{Data: render(g.L1)},
		Patterns:  g.Patterns,
		Algorithm: algorithm,
	}, lines
}

func postJSON(t *testing.T, url string, body any, out any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data := new(bytes.Buffer)
	data.ReadFrom(resp.Body)
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data.Bytes(), out); err != nil {
			t.Fatalf("decoding %s: %v (%s)", url, err, data)
		}
	}
	return resp, data.Bytes()
}

func openSession(t *testing.T, ts *httptest.Server, req OpenSessionRequest) SessionStatus {
	t.Helper()
	var st SessionStatus
	resp, body := postJSON(t, ts.URL+"/api/v1/sessions", req, &st)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("open session: HTTP %d: %s", resp.StatusCode, body)
	}
	return st
}

func appendSessionHTTP(t *testing.T, ts *httptest.Server, id string, traces []string) (*http.Response, SessionAppendResponse, []byte) {
	t.Helper()
	var ack SessionAppendResponse
	resp, body := postJSON(t, ts.URL+"/api/v1/sessions/"+id+"/events", SessionAppendRequest{Traces: traces}, &ack)
	return resp, ack, body
}

// waitCaughtUp polls a session until its published mapping covers every
// admitted trace (or the session turns terminal).
func waitCaughtUp(t *testing.T, ts *httptest.Server, id string) SessionStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st SessionStatus
		if code := getJSON(t, ts.URL+"/api/v1/sessions/"+id, &st); code != http.StatusOK {
			t.Fatalf("session status %s: HTTP %d", id, code)
		}
		if st.State.Terminal() || (st.Update != nil && st.Update.Revision == st.Accepted) {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("session %s never caught up", id)
	return SessionStatus{}
}

// TestSessionConvergesToBatchJob streams Fig. 1's target log into a session
// in chunks and checks the final streamed mapping is bit-identical to a batch
// job over the same logs — the end-to-end incremental-equals-rebuild claim at
// the API level.
func TestSessionConvergesToBatchJob(t *testing.T) {
	_, ts := testServer(t, nil)
	req, lines := fig1SessionRequest(t, "exact")
	st := openSession(t, ts, req)
	if st.State != SessionOpen {
		t.Fatalf("opened session in state %s", st.State)
	}

	for i := 0; i < len(lines); {
		n := 1 + i%2 // chunk sizes 1,2,1,2,...
		if i+n > len(lines) {
			n = len(lines) - i
		}
		resp, ack, body := appendSessionHTTP(t, ts, st.ID, lines[i:i+n])
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("append: HTTP %d: %s", resp.StatusCode, body)
		}
		i += n
		if ack.Accepted != i {
			t.Fatalf("accepted %d after %d appends", ack.Accepted, i)
		}
	}
	cur := waitCaughtUp(t, ts, st.ID)
	if cur.State != SessionOpen || cur.Update == nil {
		t.Fatalf("session not converged open: %+v", cur)
	}

	// Close: the final update must carry the same mapping.
	var fin SessionStatus
	resp, body := postJSON(t, ts.URL+"/api/v1/sessions/"+st.ID+"/close", nil, &fin)
	if resp.StatusCode == http.StatusAccepted { // still draining; poll
		fin = waitCaughtUp(t, ts, st.ID)
	} else if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: HTTP %d: %s", resp.StatusCode, body)
	}
	if fin.State != SessionClosed {
		t.Fatalf("session ended %s (%s)", fin.State, fin.Error)
	}
	if fin.Update == nil || !fin.Update.Final || fin.Update.Revision != len(lines) {
		t.Fatalf("final update %+v", fin.Update)
	}

	// Batch reference: one job over the identical problem.
	jr := fig1Request(t, "exact")
	_, jst := submitJSON(t, ts, jr)
	jdone := waitTerminal(t, ts, jst.ID)
	if jdone.State != StateDone {
		t.Fatalf("batch job ended %s: %s", jdone.State, jdone.Error)
	}
	var res JobResult
	if code := getJSON(t, ts.URL+"/api/v1/jobs/"+jst.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	if len(fin.Update.Pairs) != len(res.Pairs) {
		t.Fatalf("streamed %d pairs, batch %d", len(fin.Update.Pairs), len(res.Pairs))
	}
	for k, v := range res.Pairs {
		if fin.Update.Pairs[k] != v {
			t.Fatalf("pair %s: streamed %q, batch %q", k, fin.Update.Pairs[k], v)
		}
	}
	if math.Abs(fin.Update.Score-res.Score) > 1e-9 {
		t.Fatalf("streamed score %v, batch %v", fin.Update.Score, res.Score)
	}

	// Appends after close are refused with 410.
	resp2, _, _ := appendSessionHTTP(t, ts, st.ID, lines[:1])
	if resp2.StatusCode != http.StatusGone {
		t.Fatalf("append after close: HTTP %d, want 410", resp2.StatusCode)
	}
}

// TestSessionWatchStreams consumes the server-push endpoint: revisions must
// arrive monotonically and end with the final marker of a clean close.
func TestSessionWatchStreams(t *testing.T) {
	_, ts := testServer(t, nil)
	req, lines := fig1SessionRequest(t, "heuristic-advanced")
	st := openSession(t, ts, req)

	type watchResult struct {
		updates []SessionUpdate
		err     error
	}
	done := make(chan watchResult, 1)
	go func() {
		var wr watchResult
		resp, err := http.Get(ts.URL + "/api/v1/sessions/" + st.ID + "/watch")
		if err != nil {
			wr.err = err
			done <- wr
			return
		}
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for {
			var up SessionUpdate
			if err := dec.Decode(&up); err != nil {
				done <- wr
				return
			}
			wr.updates = append(wr.updates, up)
		}
	}()

	for _, line := range lines {
		resp, _, body := appendSessionHTTP(t, ts, st.ID, []string{line})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("append: HTTP %d: %s", resp.StatusCode, body)
		}
	}
	waitCaughtUp(t, ts, st.ID)
	if resp, body := postJSON(t, ts.URL+"/api/v1/sessions/"+st.ID+"/close", nil, nil); resp.StatusCode/100 != 2 {
		t.Fatalf("close: HTTP %d: %s", resp.StatusCode, body)
	}

	select {
	case wr := <-done:
		if wr.err != nil {
			t.Fatal(wr.err)
		}
		if len(wr.updates) == 0 {
			t.Fatal("watch saw no updates")
		}
		for i := 1; i < len(wr.updates); i++ {
			if wr.updates[i].Revision < wr.updates[i-1].Revision {
				t.Fatalf("revisions went backwards: %d then %d", wr.updates[i-1].Revision, wr.updates[i].Revision)
			}
		}
		last := wr.updates[len(wr.updates)-1]
		if !last.Final || last.Revision != len(lines) {
			t.Fatalf("last watched update %+v, want final revision %d", last, len(lines))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("watch stream never ended")
	}
}

// TestSessionAdmission covers the rejection surface: bad algorithm, unknown
// session, malformed traces, cross-tenant appends, the live-session cap, and
// the per-session backlog bound.
func TestSessionAdmission(t *testing.T) {
	_, ts := testServer(t, func(c *Config) {
		c.MaxSessions = 1
		c.SessionBacklog = 2
	})
	req, lines := fig1SessionRequest(t, "exact")

	bad := req
	bad.Algorithm = "iterative" // valid algorithm, but not session-capable
	if resp, _ := postJSON(t, ts.URL+"/api/v1/sessions", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-streaming algorithm: HTTP %d, want 400", resp.StatusCode)
	}

	if resp, _, _ := appendSessionHTTP(t, ts, "s999", lines[:1]); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: HTTP %d, want 404", resp.StatusCode)
	}

	st := openSession(t, ts, req)

	// Second live session exceeds MaxSessions.
	resp, body := postJSON(t, ts.URL+"/api/v1/sessions", req, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over session cap: HTTP %d: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Reason != ReasonQueueFull {
		t.Fatalf("cap rejection body %s", body)
	}

	// Malformed chunk: an all-whitespace trace line.
	if resp, _, _ := appendSessionHTTP(t, ts, st.ID, []string{"  "}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("blank trace: HTTP %d, want 400", resp.StatusCode)
	}

	// A chunk larger than the whole backlog can never be admitted.
	resp3, _, body3 := appendSessionHTTP(t, ts, st.ID, lines[:3])
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over backlog: HTTP %d: %s", resp3.StatusCode, body3)
	}

	// Cross-tenant append: the session belongs to the default tenant.
	data, _ := json.Marshal(SessionAppendRequest{Traces: lines[:1]})
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/sessions/"+st.ID+"/events", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Tenant", "intruder")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusForbidden {
		t.Fatalf("cross-tenant append: HTTP %d, want 403", hresp.StatusCode)
	}

	// Abort frees the live slot; aborting again just reports the status.
	areq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/sessions/"+st.ID, nil)
	aresp, err := http.DefaultClient.Do(areq)
	if err != nil {
		t.Fatal(err)
	}
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("abort: HTTP %d", aresp.StatusCode)
	}
	var st2 SessionStatus
	if code := getJSON(t, ts.URL+"/api/v1/sessions/"+st.ID, &st2); code != http.StatusOK || st2.State != SessionAborted {
		t.Fatalf("after abort: HTTP %d state %s", code, st2.State)
	}
	if resp, _, _ := appendSessionHTTP(t, ts, st.ID, lines[:1]); resp.StatusCode != http.StatusGone {
		t.Fatalf("append after abort: HTTP %d, want 410", resp.StatusCode)
	}
	st3 := openSession(t, ts, req) // slot is free again
	if st3.ID == st.ID {
		t.Fatalf("session id reused: %s", st3.ID)
	}
}

// TestSessionOpenCapConcurrent races opens against MaxSessions = 1. The cap
// check and the insert used to be separate steps with the log ingest and the
// core build between them, so several concurrent opens could all pass the
// check; exactly one may be admitted.
func TestSessionOpenCapConcurrent(t *testing.T) {
	req, _ := fig1SessionRequest(t, "exact")
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const rounds, openers = 10, 8
	for round := 0; round < rounds; round++ {
		s := New(Config{MaxSessions: 1, DefaultDeadline: 5 * time.Second})
		ts := httptest.NewServer(s.Handler())
		start := make(chan struct{})
		codes := make(chan int, openers)
		var wg sync.WaitGroup
		for i := 0; i < openers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				resp, err := http.Post(ts.URL+"/api/v1/sessions", "application/json", bytes.NewReader(body))
				if err != nil {
					codes <- 0
					return
				}
				resp.Body.Close()
				codes <- resp.StatusCode
			}()
		}
		close(start)
		wg.Wait()
		close(codes)
		admitted := 0
		for code := range codes {
			switch code {
			case http.StatusAccepted:
				admitted++
			case http.StatusTooManyRequests:
			default:
				t.Errorf("round %d: open answered HTTP %d", round, code)
			}
		}
		if admitted != 1 {
			t.Errorf("round %d: %d of %d concurrent opens admitted under MaxSessions = 1", round, admitted, openers)
		}
		if live := s.sessions.live(); live != 1 {
			t.Errorf("round %d: %d live sessions", round, live)
		}
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		cancel()
	}
}

// TestSessionRecoveryReplaysDeltas kills a daemon (no clean close journaled)
// with a live session and reboots over the same journal: the session must
// come back open, its deltas replayed, and converge to the batch mapping.
func TestSessionRecoveryReplaysDeltas(t *testing.T) {
	dir := t.TempDir()
	req, lines := fig1SessionRequest(t, "exact")

	s1, ts1, _ := durableServer(t, dir, nil)
	st := openSession(t, ts1, req)
	for _, line := range lines {
		resp, _, body := appendSessionHTTP(t, ts1, st.ID, []string{line})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("append: HTTP %d: %s", resp.StatusCode, body)
		}
	}
	waitCaughtUp(t, ts1, st.ID)
	// Shut down without closing the session: the shutdown path aborts the
	// core but journals no terminal record, so the session recovers open.
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s1.cfg.Store.Close()

	_, ts2, sum := durableServer(t, dir, nil)
	if sum.Sessions != 1 || sum.SessionsResumed != 1 {
		t.Fatalf("recovery summary %+v, want 1 session resumed", sum)
	}
	cur := waitCaughtUp(t, ts2, st.ID)
	if cur.State != SessionOpen {
		t.Fatalf("recovered session state %s (%s)", cur.State, cur.Error)
	}
	if cur.Accepted != len(lines) || cur.Update == nil || cur.Update.Revision != len(lines) {
		t.Fatalf("recovered session %+v, want %d traces replayed", cur, len(lines))
	}

	// The recovered mapping equals a batch job over the same problem.
	_, jst := submitJSON(t, ts2, fig1Request(t, "exact"))
	jdone := waitTerminal(t, ts2, jst.ID)
	if jdone.State != StateDone {
		t.Fatalf("batch job ended %s: %s", jdone.State, jdone.Error)
	}
	var res JobResult
	if code := getJSON(t, ts2.URL+"/api/v1/jobs/"+jst.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	for k, v := range res.Pairs {
		if cur.Update.Pairs[k] != v {
			t.Fatalf("pair %s: recovered %q, batch %q", k, cur.Update.Pairs[k], v)
		}
	}
	if math.Abs(cur.Update.Score-res.Score) > 1e-9 {
		t.Fatalf("recovered score %v, batch %v", cur.Update.Score, res.Score)
	}

	// The recovered session is still live: it accepts more appends.
	if resp, _, body := appendSessionHTTP(t, ts2, st.ID, lines[:1]); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("append after recovery: HTTP %d: %s", resp.StatusCode, body)
	}
	waitCaughtUp(t, ts2, st.ID)
}

// TestSessionRecoveryServesTerminal reboots over a journal holding a cleanly
// closed session: the final mapping must be served straight from the journal,
// with no live core behind it.
func TestSessionRecoveryServesTerminal(t *testing.T) {
	dir := t.TempDir()
	req, lines := fig1SessionRequest(t, "exact")

	s1, ts1, _ := durableServer(t, dir, nil)
	st := openSession(t, ts1, req)
	for _, line := range lines {
		appendSessionHTTP(t, ts1, st.ID, []string{line})
	}
	waitCaughtUp(t, ts1, st.ID)
	var fin SessionStatus
	resp, body := postJSON(t, ts1.URL+"/api/v1/sessions/"+st.ID+"/close", nil, &fin)
	if resp.StatusCode == http.StatusAccepted {
		fin = waitCaughtUp(t, ts1, st.ID)
	} else if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: HTTP %d: %s", resp.StatusCode, body)
	}
	if fin.State != SessionClosed || fin.Update == nil {
		t.Fatalf("close ended %s (%s)", fin.State, fin.Error)
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s1.cfg.Store.Close()

	_, ts2, sum := durableServer(t, dir, nil)
	if sum.Sessions != 1 || sum.SessionsResumed != 0 {
		t.Fatalf("recovery summary %+v, want 1 terminal session", sum)
	}
	var got SessionStatus
	if code := getJSON(t, ts2.URL+"/api/v1/sessions/"+st.ID, &got); code != http.StatusOK {
		t.Fatalf("status: HTTP %d", code)
	}
	if got.State != SessionClosed || got.Update == nil || !got.Update.Final {
		t.Fatalf("recovered terminal session %+v", got)
	}
	if got.Update.Revision != fin.Update.Revision || math.Abs(got.Update.Score-fin.Update.Score) > 1e-12 {
		t.Fatalf("recovered final %+v, want %+v", got.Update, fin.Update)
	}
	for k, v := range fin.Update.Pairs {
		if got.Update.Pairs[k] != v {
			t.Fatalf("pair %s: recovered %q, want %q", k, got.Update.Pairs[k], v)
		}
	}
	// Terminal-restored sessions refuse appends but serve status forever.
	if resp, _, _ := appendSessionHTTP(t, ts2, st.ID, lines[:1]); resp.StatusCode != http.StatusGone {
		t.Fatalf("append to restored terminal session: HTTP %d, want 410", resp.StatusCode)
	}
}

// TestSessionStatusCountsFailedSearches checks that a session's status
// reports the re-searches its core failed, with the latest failure's error,
// so a stale published mapping can be told apart from a fresh one.
func TestSessionStatusCountsFailedSearches(t *testing.T) {
	ss := newStreamSession(fixedSpec{algoName: "exact"}, time.Now(), SessionOpen, 0)
	core, err := stream.NewSession(stream.SessionConfig{
		L1:   event.FromStrings("A B"),
		Mode: match.ModeVertex,
		Search: func(context.Context, *match.Problem, match.Options) (match.Mapping, match.Stats, error) {
			return nil, match.Stats{}, errors.New("injected search failure")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ss.core = core
	if st := ss.status(); st.FailedSearches != 0 || st.Error != "" {
		t.Fatalf("fresh session: %d failed searches, error %q", st.FailedSearches, st.Error)
	}
	if _, err := core.Append([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := ss.status()
	if st.FailedSearches != 1 || st.Error != "injected search failure" || st.Update != nil {
		t.Errorf("after a failed re-search: %d failed searches, error %q, update %v; want 1, the failure, none",
			st.FailedSearches, st.Error, st.Update)
	}
}
