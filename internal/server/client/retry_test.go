package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"eventmatch/internal/server"
)

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"saturated", &SaturatedError{RetryAfter: time.Second}, true},
		{"503 draining", &StatusError{Code: http.StatusServiceUnavailable, Msg: "draining"}, true},
		{"502", &StatusError{Code: http.StatusBadGateway}, true},
		{"504", &StatusError{Code: http.StatusGatewayTimeout}, true},
		{"400 client error", &StatusError{Code: http.StatusBadRequest, Msg: "bad log"}, false},
		{"404 unknown job", &StatusError{Code: http.StatusNotFound}, false},
		{"409 not yet terminal", &StatusError{Code: http.StatusConflict, State: server.StateRunning}, false},
		{"410 canceled", &StatusError{Code: http.StatusGone, State: server.StateCanceled}, false},
		{"context canceled", context.Canceled, false},
		{"deadline exceeded", fmt.Errorf("client: %w", context.DeadlineExceeded), false},
		{"connection refused", fmt.Errorf("client: %w", syscall.ECONNREFUSED), true},
		{"connection reset", fmt.Errorf("client: %w", syscall.ECONNRESET), true},
		{"unexpected EOF", fmt.Errorf("client: %w", io.ErrUnexpectedEOF), true},
		{"bare EOF", fmt.Errorf("client: %w", io.EOF), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Retryable(tc.err); got != tc.want {
				t.Fatalf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

func TestRetryDelaySchedule(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: 500 * time.Millisecond, Jitter: -1}
	plain := errors.New("boom")
	for i, want := range []time.Duration{100, 200, 400, 500, 500} {
		if got := p.delay(i, plain); got != want*time.Millisecond {
			t.Fatalf("delay(%d) = %v, want %v", i, got, want*time.Millisecond)
		}
	}
	// A server Retry-After hint overrides the schedule (capped at 2*MaxDelay).
	if got := p.delay(0, &SaturatedError{RetryAfter: 300 * time.Millisecond}); got != 300*time.Millisecond {
		t.Fatalf("Retry-After delay = %v, want 300ms", got)
	}
	if got := p.delay(0, &SaturatedError{RetryAfter: time.Hour}); got != time.Second {
		t.Fatalf("capped Retry-After delay = %v, want 1s", got)
	}
	// Jittered delays stay within (1-j, 1] of the base.
	pj := RetryPolicy{BaseDelay: 100 * time.Millisecond, Jitter: 0.5}
	for i := 0; i < 50; i++ {
		d := pj.delay(0, plain)
		if d < 50*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("jittered delay %v outside (50ms, 100ms]", d)
		}
	}
}

// TestRetryRecoversFromTransientErrors: a daemon answering 503 twice (e.g.
// mid-restart) then serving normally is invisible to a retrying caller.
func TestRetryRecoversFromTransientErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"draining"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"j1","state":"done","algorithm":"exact","created":"x"}`)
	}))
	defer ts.Close()
	c := New(ts.URL, nil).WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Jitter: -1})
	st, err := c.Status(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("state %q after retries", st.State)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

// TestNoRetryOnClientError: 4xx is terminal; exactly one request goes out.
func TestNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"empty log"}`)
	}))
	defer ts.Close()
	c := New(ts.URL, nil).WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Jitter: -1})
	_, err := c.Status(context.Background(), "j1")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 StatusError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1", got)
	}
}

// TestRetrySubmitReplaysBody: retried POSTs must resend the full body — the
// request body is a byte slice precisely so attempt 2 is not empty.
func TestRetrySubmitReplaysBody(t *testing.T) {
	var calls atomic.Int64
	var lens [2]int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		body, _ := io.ReadAll(r.Body)
		if n <= 2 {
			lens[n-1] = int64(len(body))
		}
		if n == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"draining"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"j1","state":"queued","algorithm":"exact","created":"x"}`)
	}))
	defer ts.Close()
	c := New(ts.URL, nil).WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Jitter: -1})
	if _, err := c.Submit(context.Background(), server.SubmitRequest{
		Log1: server.LogPayload{Data: "a b c\n"},
		Log2: server.LogPayload{Data: "x y z\n"},
	}); err != nil {
		t.Fatal(err)
	}
	if lens[0] == 0 || lens[0] != lens[1] {
		t.Fatalf("retried body lengths differ: %d then %d", lens[0], lens[1])
	}
}

// TestConnectionRefusedIsRetryable: a daemon that is down (or restarting
// after a crash) produces a retryable error, not a terminal one.
func TestConnectionRefusedIsRetryable(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	addr := ts.URL
	ts.Close() // nothing listens there anymore
	c := New(addr, nil)
	_, err := c.Status(context.Background(), "j1")
	if err == nil {
		t.Fatal("status against a closed port succeeded")
	}
	if !Retryable(err) {
		t.Fatalf("connection-refused error not retryable: %v", err)
	}
}

// TestTerminalStateSurfacedInError: the result endpoint's 410/500 bodies
// carry the job state; the typed error exposes it and TerminalJob.
func TestTerminalStateSurfacedInError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGone)
		fmt.Fprint(w, `{"error":"job canceled before it started; no result","state":"canceled","stop_reason":"canceled"}`)
	}))
	defer ts.Close()
	c := New(ts.URL, nil)
	_, err := c.Result(context.Background(), "j9")
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want StatusError", err)
	}
	if se.State != server.StateCanceled || se.StopReason != "canceled" || !se.TerminalJob() {
		t.Fatalf("terminal state not surfaced: %+v", se)
	}
	if Retryable(err) {
		t.Fatal("terminal job error classified retryable")
	}
}

// TestDefaultRetryPolicy pins the interactive defaults and checks that its
// delays stay inside the jittered exponential schedule.
func TestDefaultRetryPolicy(t *testing.T) {
	p := DefaultRetryPolicy()
	want := RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second, Jitter: 0.5}
	if p != want {
		t.Fatalf("DefaultRetryPolicy() = %+v, want %+v", p, want)
	}
	plain := errors.New("boom")
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		full := min(p.BaseDelay<<attempt, p.MaxDelay)
		for i := 0; i < 20; i++ {
			if d := p.delay(attempt, plain); d < full/2 || d > full {
				t.Fatalf("delay(%d) = %v outside [%v, %v]", attempt, d, full/2, full)
			}
		}
	}
}

// TestErrorMessages checks the text of the typed errors: the job state when
// the server named one, and the reject reason of a 429.
func TestErrorMessages(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{&StatusError{Code: 404, Msg: "no such job"}, "server: HTTP 404: no such job"},
		{&StatusError{Code: 410, Msg: "gone", State: server.StateCanceled}, "server: HTTP 410 (job canceled): gone"},
		{&SaturatedError{RetryAfter: 2 * time.Second, Reason: server.ReasonRateLimited}, "server: rate limited (retry after 2s)"},
		{&SaturatedError{RetryAfter: time.Second, Reason: server.ReasonQueueFull}, "server: job queue full (retry after 1s)"},
		{&SaturatedError{RetryAfter: time.Second}, "server: job queue full (retry after 1s)"},
		{&SaturatedError{RetryAfter: 500 * time.Millisecond, Reason: "maintenance"}, "server: rejected (maintenance, retry after 500ms)"},
	}
	for _, c := range cases {
		if got := c.err.Error(); got != c.want {
			t.Errorf("Error() = %q, want %q", got, c.want)
		}
	}
	if !(&SaturatedError{Reason: server.ReasonRateLimited}).RateLimited() || (&SaturatedError{Reason: server.ReasonQueueFull}).RateLimited() {
		t.Error("RateLimited misclassifies the reject reason")
	}
}
