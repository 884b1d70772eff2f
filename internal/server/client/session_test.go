package client

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"eventmatch/internal/server"
)

// fig1Session returns an open-session request over Fig. 1's source log and
// patterns, and Fig. 1's target traces as append lines.
func fig1Session(t *testing.T, algorithm string) (server.OpenSessionRequest, []string) {
	t.Helper()
	log1, log2, patterns, _ := fig1Files(t)
	var lines []string
	for _, ln := range strings.Split(string(log2), "\n") {
		if strings.TrimSpace(ln) != "" {
			lines = append(lines, ln)
		}
	}
	return server.OpenSessionRequest{
		Log1:      server.LogPayload{Data: string(log1)},
		Patterns:  strings.Split(strings.TrimSpace(string(patterns)), "\n"),
		Algorithm: algorithm,
	}, lines
}

// TestClientSessionLifecycle drives a streaming session through the typed
// client: open, watch, chunked appends, catch-up, status, clean close, and
// the 410 an append after close gets.
func TestClientSessionLifecycle(t *testing.T) {
	_, c := testDaemon(t, server.Config{Workers: 2, QueueDepth: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, lines := fig1Session(t, "exact")

	st, err := c.OpenSession(ctx, req)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if st.ID == "" || st.State != server.SessionOpen {
		t.Fatalf("opened %+v", st)
	}

	watched := make(chan []server.SessionUpdate, 1)
	watchErr := make(chan error, 1)
	go func() {
		var ups []server.SessionUpdate
		err := c.WatchSession(ctx, st.ID, func(up server.SessionUpdate) bool {
			ups = append(ups, up)
			return !up.Final
		})
		watched <- ups
		watchErr <- err
	}()

	for i := 0; i < len(lines); i += 2 {
		end := min(i+2, len(lines))
		ack, err := c.AppendSession(ctx, st.ID, lines[i:end])
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if ack.Accepted != end {
			t.Fatalf("accepted %d after %d traces", ack.Accepted, end)
		}
	}
	cur, err := c.WaitSessionCaughtUp(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("wait caught up: %v", err)
	}
	if cur.Update == nil || cur.Update.Revision != len(lines) || cur.Accepted != len(lines) {
		t.Fatalf("caught-up status %+v", cur)
	}
	polled, err := c.Session(ctx, st.ID)
	if err != nil || polled.ID != st.ID || polled.Accepted != len(lines) {
		t.Fatalf("status poll: %+v, %v", polled, err)
	}

	fin, err := c.CloseSession(ctx, st.ID)
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if !fin.State.Terminal() {
		if fin, err = c.WaitSessionTerminal(ctx, st.ID, 5*time.Millisecond); err != nil {
			t.Fatalf("wait terminal: %v", err)
		}
	}
	if fin.State != server.SessionClosed || fin.Update == nil || !fin.Update.Final || fin.Update.Revision != len(lines) {
		t.Fatalf("closed session %+v (update %+v)", fin, fin.Update)
	}

	ups := <-watched
	if err := <-watchErr; err != nil {
		t.Fatalf("watch: %v", err)
	}
	if len(ups) == 0 || !ups[len(ups)-1].Final {
		t.Fatalf("watch saw %d updates, last not final", len(ups))
	}
	for i := 1; i < len(ups); i++ {
		if ups[i].Revision < ups[i-1].Revision {
			t.Fatalf("watched revisions go back: %d after %d", ups[i].Revision, ups[i-1].Revision)
		}
	}
	for k, v := range fin.Update.Pairs {
		if ups[len(ups)-1].Pairs[k] != v {
			t.Fatalf("watched final pair %s = %q, status %q", k, ups[len(ups)-1].Pairs[k], v)
		}
	}

	var se *StatusError
	if _, err := c.AppendSession(ctx, st.ID, lines[:1]); !errors.As(err, &se) || se.Code != 410 {
		t.Fatalf("append after close = %v, want StatusError 410", err)
	}
}

// TestClientSessionAbort aborts an open session: it turns terminal at once,
// with no final mapping, and a watcher that joins later sees the stream end.
func TestClientSessionAbort(t *testing.T) {
	_, c := testDaemon(t, server.Config{Workers: 1, QueueDepth: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, lines := fig1Session(t, "heuristic-advanced")
	st, err := c.OpenSession(ctx, req)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := c.AppendSession(ctx, st.ID, lines); err != nil {
		t.Fatalf("append: %v", err)
	}
	ab, err := c.AbortSession(ctx, st.ID)
	if err != nil {
		t.Fatalf("abort: %v", err)
	}
	if ab.State != server.SessionAborted {
		t.Fatalf("aborted session in state %s", ab.State)
	}
	done, err := c.WaitSessionTerminal(ctx, st.ID, 5*time.Millisecond)
	if err != nil || done.State != server.SessionAborted {
		t.Fatalf("terminal poll: %+v, %v", done, err)
	}
	if done.Update != nil && done.Update.Final {
		t.Fatalf("aborted session published a final update: %+v", done.Update)
	}
	if err := c.WatchSession(ctx, st.ID, func(server.SessionUpdate) bool { return true }); err != nil {
		t.Fatalf("watch of a terminal session: %v", err)
	}
}

// TestClientSessionUnknown maps an unknown session id onto a 404
// *StatusError on every session endpoint, the watch stream included.
func TestClientSessionUnknown(t *testing.T) {
	_, c := testDaemon(t, server.Config{Workers: 1, QueueDepth: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	calls := map[string]func() error{
		"status": func() error { _, err := c.Session(ctx, "nope"); return err },
		"append": func() error { _, err := c.AppendSession(ctx, "nope", []string{"a b"}); return err },
		"close":  func() error { _, err := c.CloseSession(ctx, "nope"); return err },
		"abort":  func() error { _, err := c.AbortSession(ctx, "nope"); return err },
		"watch": func() error {
			return c.WatchSession(ctx, "nope", func(server.SessionUpdate) bool { return true })
		},
		"wait": func() error { _, err := c.WaitSessionTerminal(ctx, "nope", time.Millisecond); return err },
	}
	for name, call := range calls {
		var se *StatusError
		if err := call(); !errors.As(err, &se) || se.Code != 404 {
			t.Errorf("%s: err = %v, want StatusError 404", name, err)
		}
	}
}
