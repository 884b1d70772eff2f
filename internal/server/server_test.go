package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"eventmatch/internal/gen"
	"eventmatch/internal/logio"
	"eventmatch/internal/match"

	"eventmatch"
)

// testServer boots a Server (with optional config tweaks) behind httptest
// and tears both down with the test.
func testServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Workers:         2,
		QueueDepth:      4,
		DefaultDeadline: 5 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// fig1Request renders the paper's Fig. 1 workload as a JSON submission.
func fig1Request(t *testing.T, algorithm string) SubmitRequest {
	t.Helper()
	g := gen.Fig1()
	render := func(l *eventmatch.Log) string {
		var b strings.Builder
		if err := logio.Write(&b, l, logio.FormatTraceLines); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	truth := make(map[string]string)
	for v1, v2 := range g.Truth {
		if v2 >= 0 {
			truth[g.L1.Alphabet.Name(eventmatch.EventID(v1))] = g.L2.Alphabet.Name(v2)
		}
	}
	return SubmitRequest{
		Log1:      LogPayload{Data: render(g.L1)},
		Log2:      LogPayload{Data: render(g.L2)},
		Patterns:  g.Patterns,
		Truth:     truth,
		Algorithm: algorithm,
	}
}

func submitJSON(t *testing.T, ts *httptest.Server, req SubmitRequest) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, st
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := getJSON(t, ts.URL+"/api/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return JobStatus{}
}

// TestJobLifecycle drives a real Fig. 1 match through the full submit →
// poll → result cycle and checks the result against the library run on the
// same inputs.
func TestJobLifecycle(t *testing.T) {
	_, ts := testServer(t, nil)
	req := fig1Request(t, "heuristic-advanced")
	resp, st := submitJSON(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if st.ID == "" || (st.State != StateQueued && st.State != StateRunning) {
		t.Fatalf("unexpected initial status %+v", st)
	}

	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %s (err %q), want done", final.State, final.Error)
	}

	var res JobResult
	if code := getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}

	// Same inputs through the library must agree on mapping and score.
	g := gen.Fig1()
	want, err := eventmatch.Match(g.L1, g.L2, eventmatch.Config{Patterns: g.Patterns})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != len(want.Pairs) {
		t.Fatalf("server pairs %v, library pairs %v", res.Pairs, want.Pairs)
	}
	for k, v := range want.Pairs {
		if res.Pairs[k] != v {
			t.Errorf("pair %s: server %q, library %q", k, res.Pairs[k], v)
		}
	}
	if res.Score != want.Score {
		t.Errorf("server score %v, library score %v", res.Score, want.Score)
	}
	if res.Quality == nil {
		t.Fatal("quality missing despite submitted truth")
	}
	if res.Quality.FMeasure <= 0 {
		t.Errorf("f-measure = %v, want > 0", res.Quality.FMeasure)
	}

	// The job list knows the job.
	var list ListResponse
	if code := getJSON(t, ts.URL+"/api/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	found := false
	for _, j := range list.Jobs {
		found = found || j.ID == st.ID
	}
	if !found {
		t.Errorf("job %s missing from list %+v", st.ID, list.Jobs)
	}
}

// TestSubmitValidation exercises the 400 paths: parse and validation errors
// must be rejected at submission, never reach a worker.
func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t, nil)
	base := fig1Request(t, "heuristic-advanced")
	cases := []struct {
		name   string
		mutate func(*SubmitRequest)
	}{
		{"unknown algorithm", func(r *SubmitRequest) { r.Algorithm = "quantum" }},
		{"empty log1", func(r *SubmitRequest) { r.Log1.Data = "" }},
		{"bad format", func(r *SubmitRequest) { r.Log1.Format = "parquet" }},
		{"bad pattern", func(r *SubmitRequest) { r.Patterns = []string{"SEQ("} }},
		{"pattern over unknown event", func(r *SubmitRequest) { r.Patterns = []string{"SEQ(Nope,Nada)"} }},
		{"truth unknown in log1", func(r *SubmitRequest) { r.Truth = map[string]string{"Nope": "1"} }},
		{"truth unknown in log2", func(r *SubmitRequest) { r.Truth = map[string]string{"A": "999"} }},
		{"negative budget", func(r *SubmitRequest) { r.MaxGenerated = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := base
			tc.mutate(&req)
			resp, _ := submitJSON(t, ts, req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400", resp.StatusCode)
			}
		})
	}

	t.Run("malformed JSON", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d, want 400", resp.StatusCode)
		}
	})
	t.Run("unknown job endpoints", func(t *testing.T) {
		for _, path := range []string{"/api/v1/jobs/nope", "/api/v1/jobs/nope/result"} {
			if code := getJSON(t, ts.URL+path, nil); code != http.StatusNotFound {
				t.Errorf("%s: HTTP %d, want 404", path, code)
			}
		}
	})
}

// TestBackpressure fills the pool (1 worker held by the test hook, 1 queue
// slot) and checks that the next submission is rejected with 429 and a
// Retry-After hint, and that the queue admits again after release.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	s, ts := testServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	s.testHookBeforeRun = func(j *job) {
		select {
		case <-release:
		case <-j.ctx.Done():
		}
	}
	defer once.Do(func() { close(release) })

	req := fig1Request(t, "heuristic-advanced")
	resp1, st1 := submitJSON(t, ts, req) // occupies the worker
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: HTTP %d", resp1.StatusCode)
	}
	// Wait until job 1 is actually running so job 2 lands in the queue.
	waitState := func(id string, want JobState) {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			var st JobStatus
			getJSON(t, ts.URL+"/api/v1/jobs/"+id, &st)
			if st.State == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("job %s never reached %s", id, want)
	}
	waitState(st1.ID, StateRunning)

	resp2, st2 := submitJSON(t, ts, req) // fills the queue
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: HTTP %d", resp2.StatusCode)
	}

	resp3, _ := submitJSON(t, ts, req) // rejected
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 3: HTTP %d, want 429", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	snap := s.Telemetry().Snapshot()
	if snap.Counter("server.jobs_rejected") == 0 {
		t.Error("server.jobs_rejected not incremented")
	}
	if got := snap.Gauge("server.queue_depth"); got != 1 {
		t.Errorf("server.queue_depth = %d, want 1", got)
	}

	once.Do(func() { close(release) })
	if st := waitTerminal(t, ts, st1.ID); st.State != StateDone {
		t.Errorf("job 1 finished %s, want done", st.State)
	}
	if st := waitTerminal(t, ts, st2.ID); st.State != StateDone {
		t.Errorf("job 2 finished %s, want done", st.State)
	}

	// Capacity is back: a new submission is admitted.
	resp4, st4 := submitJSON(t, ts, req)
	if resp4.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 4 after release: HTTP %d", resp4.StatusCode)
	}
	waitTerminal(t, ts, st4.ID)
}

// TestCancelRunning cancels a job mid-search and expects a truncated
// best-so-far result with StopReason "canceled" — the anytime contract over
// HTTP.
func TestCancelRunning(t *testing.T) {
	started := make(chan struct{}, 1)
	s, ts := testServer(t, func(c *Config) { c.Workers = 1 })
	s.testHookBeforeRun = func(j *job) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-j.ctx.Done() // hold the job running until the cancel arrives
	}

	_, st := submitJSON(t, ts, fig1Request(t, "exact"))
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}

	resp, err := http.Post(ts.URL+"/api/v1/jobs/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}

	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("canceled running job finished %s, want done (anytime)", final.State)
	}
	var res JobResult
	if code := getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	if !res.Truncated || res.StopReason != match.StopCanceled {
		t.Errorf("result truncated=%v stop=%q, want truncated canceled", res.Truncated, res.StopReason)
	}
	if len(res.Pairs) == 0 {
		t.Error("canceled job returned no best-so-far mapping")
	}
}

// TestCancelQueued cancels a job that never got a worker: it must go
// terminal as canceled, with 410 from the result endpoint, and the held
// worker must skip it entirely.
func TestCancelQueued(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	s, ts := testServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 2
	})
	s.testHookBeforeRun = func(j *job) {
		select {
		case <-release:
		case <-j.ctx.Done():
		}
	}
	defer once.Do(func() { close(release) })

	req := fig1Request(t, "heuristic-advanced")
	_, st1 := submitJSON(t, ts, req) // occupies the worker (or queue head)
	_, st2 := submitJSON(t, ts, req) // waits in the queue

	resp, err := http.Post(ts.URL+"/api/v1/jobs/"+st2.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := waitTerminal(t, ts, st2.ID)
	if final.State != StateCanceled {
		t.Fatalf("queued job finished %s, want canceled", final.State)
	}
	if code := getJSON(t, ts.URL+"/api/v1/jobs/"+st2.ID+"/result", nil); code != http.StatusGone {
		t.Fatalf("result of queued-canceled job: HTTP %d, want 410", code)
	}

	once.Do(func() { close(release) })
	waitTerminal(t, ts, st1.ID)
	snap := s.Telemetry().Snapshot()
	if got := snap.Counter("server.jobs_canceled"); got == 0 {
		t.Error("server.jobs_canceled not incremented")
	}

	// Cancel after terminal is an idempotent no-op.
	resp, err = http.Post(ts.URL+"/api/v1/jobs/"+st2.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("re-cancel: HTTP %d", resp.StatusCode)
	}
}

// TestProgressSurfacesMidFlight polls a deliberately slow exact search for
// an in-flight progress snapshot, then cancels it.
func TestProgressSurfacesMidFlight(t *testing.T) {
	_, ts := testServer(t, func(c *Config) {
		c.ProgressEvery = time.Millisecond
	})
	// A 14-event random pair keeps the exact search busy for long enough
	// (seconds of frontier work) to observe progress before canceling.
	g := gen.RandomPair(7, 14, 60, 12)
	render := func(l *eventmatch.Log) string {
		var b strings.Builder
		if err := logio.Write(&b, l, logio.FormatTraceLines); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	req := SubmitRequest{
		Log1:      LogPayload{Data: render(g.L1)},
		Log2:      LogPayload{Data: render(g.L2)},
		Patterns:  g.Patterns,
		Algorithm: "exact",
		TimeoutMS: (20 * time.Second).Milliseconds(),
	}
	_, st := submitJSON(t, ts, req)

	deadline := time.Now().Add(15 * time.Second)
	sawProgress := false
	for time.Now().Before(deadline) {
		var cur JobStatus
		getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID, &cur)
		if cur.State == StateRunning && cur.Progress != nil && cur.Progress.Generated > 0 {
			sawProgress = true
			break
		}
		if cur.State.Terminal() {
			// The machine raced through the whole search; nothing to assert.
			t.Skipf("exact search finished before progress could be observed (%s)", cur.State)
		}
		time.Sleep(time.Millisecond)
	}
	if !sawProgress {
		t.Fatal("never observed an in-flight progress snapshot")
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone || final.StopReason != match.StopCanceled {
		t.Errorf("final %s stop=%q, want done/canceled", final.State, final.StopReason)
	}
}

// TestCacheReuse submits the same inputs twice and expects the second job to
// hit both the log cache and the problem cache.
func TestCacheReuse(t *testing.T) {
	s, ts := testServer(t, nil)
	req := fig1Request(t, "heuristic-advanced")

	_, st1 := submitJSON(t, ts, req)
	waitTerminal(t, ts, st1.ID)
	snap1 := s.Telemetry().Snapshot()

	_, st2 := submitJSON(t, ts, req)
	waitTerminal(t, ts, st2.ID)
	snap2 := s.Telemetry().Snapshot()

	if got := snap2.Counter("server.logcache_hits") - snap1.Counter("server.logcache_hits"); got != 2 {
		t.Errorf("second submission log cache hits = %d, want 2", got)
	}
	if got := snap2.Counter("server.problemcache_hits") - snap1.Counter("server.problemcache_hits"); got != 1 {
		t.Errorf("second submission problem cache hits = %d, want 1", got)
	}
	if snap2.Gauge("server.logcache_entries") != 2 || snap2.Gauge("server.problemcache_entries") != 1 {
		t.Errorf("cache entry gauges = %d/%d, want 2/1",
			snap2.Gauge("server.logcache_entries"), snap2.Gauge("server.problemcache_entries"))
	}

	// Same result both times (the cached problem is shared, not corrupted).
	var r1, r2 JobResult
	getJSON(t, ts.URL+"/api/v1/jobs/"+st1.ID+"/result", &r1)
	getJSON(t, ts.URL+"/api/v1/jobs/"+st2.ID+"/result", &r2)
	if r1.Score != r2.Score || len(r1.Pairs) != len(r2.Pairs) {
		t.Errorf("cached rerun diverged: %v/%v vs %v/%v", r1.Score, r1.Pairs, r2.Score, r2.Pairs)
	}
}

// TestMultipartSubmit uploads raw files (trace-lines logs, patterns.txt,
// truth.txt) exactly as the CI end-to-end gate does.
func TestMultipartSubmit(t *testing.T) {
	_, ts := testServer(t, nil)
	g := gen.Fig1()
	render := func(l *eventmatch.Log) []byte {
		var b strings.Builder
		if err := logio.Write(&b, l, logio.FormatTraceLines); err != nil {
			t.Fatal(err)
		}
		return []byte(b.String())
	}
	var truth strings.Builder
	for v1, v2 := range g.Truth {
		if v2 >= 0 {
			fmt.Fprintf(&truth, "%s -> %s\n", g.L1.Alphabet.Name(eventmatch.EventID(v1)), g.L2.Alphabet.Name(v2))
		}
	}

	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, part := range []struct{ field, name, data string }{
		{"log1", "l1.log", string(render(g.L1))},
		{"log2", "l2.log", string(render(g.L2))},
		{"patterns", "patterns.txt", strings.Join(g.Patterns, "\n") + "\n"},
		{"truth", "truth.txt", truth.String()},
	} {
		fw, err := mw.CreateFormFile(part.field, part.name)
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(fw, part.data)
	}
	mw.WriteField("algorithm", "heuristic-advanced")
	mw.WriteField("timeout_ms", "10000")
	mw.Close()

	resp, err := http.Post(ts.URL+"/api/v1/jobs", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("multipart submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("upload job finished %s (err %q)", final.State, final.Error)
	}
	var res JobResult
	getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID+"/result", &res)
	if res.Quality == nil || res.Quality.FMeasure <= 0 {
		t.Errorf("upload job quality = %+v, want f-measure > 0", res.Quality)
	}
}

// TestShutdownForceCancelsInFlight starts a held job and shuts down with an
// already-tight deadline: the drain must force-cancel the search, the worker
// must exit, and the job must land done/truncated, not lost.
func TestShutdownForceCancelsInFlight(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, DefaultDeadline: time.Minute})
	started := make(chan struct{}, 1)
	s.testHookBeforeRun = func(j *job) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-j.ctx.Done()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, st := submitJSON(t, ts, fig1Request(t, "heuristic-advanced"))
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	doneCh := make(chan error, 1)
	go func() { doneCh <- s.Shutdown(ctx) }()
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown hung despite force-cancel")
	}

	// The in-flight job was checkpointed, not dropped.
	j, ok := s.jobs.get(st.ID)
	if !ok {
		t.Fatal("job vanished during shutdown")
	}
	state, res, errMsg := j.snapshot()
	if state != StateDone || res == nil {
		t.Fatalf("job after drain: %s (%q), want done with result", state, errMsg)
	}
	if !res.Truncated || res.StopReason != match.StopCanceled {
		t.Errorf("drained job truncated=%v stop=%q, want truncated canceled", res.Truncated, res.StopReason)
	}

	// Draining mode rejects new work with 503 on both endpoints.
	resp, _ := submitJSON(t, ts, fig1Request(t, "heuristic-advanced"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: HTTP %d, want 503", hresp.StatusCode)
	}
}

// TestObservabilityEndpoints checks /healthz, /api/v1/metrics and
// /debug/vars while serving.
func TestObservabilityEndpoints(t *testing.T) {
	_, ts := testServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz: HTTP %d %q", resp.StatusCode, body)
	}

	_, st := submitJSON(t, ts, fig1Request(t, "heuristic-advanced"))
	waitTerminal(t, ts, st.ID)

	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	if snap.Counters["server.jobs_submitted"] == 0 || snap.Counters["server.jobs_completed"] == 0 {
		t.Errorf("job counters missing from metrics: %+v", snap.Counters)
	}
	if _, ok := snap.Gauges["server.queue_capacity"]; !ok {
		t.Errorf("queue capacity gauge missing: %+v", snap.Gauges)
	}
	if _, ok := snap.Gauges["server.workers"]; !ok {
		t.Errorf("workers gauge missing: %+v", snap.Gauges)
	}

	dresp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	dbody, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || !json.Valid(dbody) {
		t.Errorf("debug/vars: HTTP %d, valid JSON = %v", dresp.StatusCode, json.Valid(dbody))
	}
}

// TestJobStoreEviction caps the store at 3 and submits 5 fast jobs: the
// oldest finished jobs must be evicted, the newest kept.
func TestJobStoreEviction(t *testing.T) {
	_, ts := testServer(t, func(c *Config) {
		c.MaxStoredJobs = 3
		c.Workers = 1
	})
	req := fig1Request(t, "heuristic-advanced")
	var last JobStatus
	for i := 0; i < 5; i++ {
		_, st := submitJSON(t, ts, req)
		last = waitTerminal(t, ts, st.ID)
	}
	var list ListResponse
	getJSON(t, ts.URL+"/api/v1/jobs", &list)
	if len(list.Jobs) > 3 {
		t.Errorf("store holds %d jobs, cap 3", len(list.Jobs))
	}
	found := false
	for _, j := range list.Jobs {
		found = found || j.ID == last.ID
	}
	if !found {
		t.Errorf("newest job %s evicted; list %+v", last.ID, list.Jobs)
	}
}
