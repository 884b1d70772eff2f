package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"eventmatch/internal/gen"
	"eventmatch/internal/logio"
	"eventmatch/internal/server"
	"eventmatch/internal/server/client"
	"eventmatch/internal/server/store"
	"eventmatch/internal/telemetry"

	"eventmatch"
)

// TestMain lets the test binary impersonate the daemon: with
// EVENTMATCHD_BE_MAIN=1 it runs main() instead of the tests, so subprocess
// tests (SIGTERM drain, the e2e gate) exercise the real binary entrypoint
// without a separate `go build`.
func TestMain(m *testing.M) {
	if os.Getenv("EVENTMATCHD_BE_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func testOptions() daemonOptions {
	return daemonOptions{
		addr:           "127.0.0.1:0",
		workers:        2,
		queueDepth:     4,
		searchWorkers:  1,
		deadline:       10 * time.Second,
		maxDeadline:    time.Minute,
		maxUploadBytes: 4 << 20,
		drainTimeout:   5 * time.Second,
	}
}

func fig1Inputs(t *testing.T) (log1, log2, patterns, truth []byte) {
	t.Helper()
	g := gen.Fig1()
	render := func(l *eventmatch.Log) []byte {
		var b strings.Builder
		if err := logio.Write(&b, l, logio.FormatTraceLines); err != nil {
			t.Fatal(err)
		}
		return []byte(b.String())
	}
	var tb strings.Builder
	for v1, v2 := range g.Truth {
		if v2 >= 0 {
			fmt.Fprintf(&tb, "%s -> %s\n", g.L1.Alphabet.Name(eventmatch.EventID(v1)), g.L2.Alphabet.Name(v2))
		}
	}
	return render(g.L1), render(g.L2),
		[]byte(strings.Join(g.Patterns, "\n") + "\n"), []byte(tb.String())
}

// TestRunServesAndDrains boots run() in-process, completes one real job
// through the client, then cancels the context (the signal path) and
// expects a clean drain with a metrics file left behind.
func TestRunServesAndDrains(t *testing.T) {
	o := testOptions()
	o.metricsJSON = filepath.Join(t.TempDir(), "metrics.json")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan struct{})
	var (
		code   int
		runErr error
	)
	go func() {
		defer close(done)
		code, runErr = run(ctx, o, io.Discard, func(addr string) { ready <- addr })
	}()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	c := client.New("http://"+addr, nil)
	cctx, ccancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer ccancel()
	if err := c.Health(cctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	log1, log2, patterns, truth := fig1Inputs(t)
	st, err := c.SubmitUpload(cctx,
		client.Upload{Name: "l1.log", Data: log1},
		client.Upload{Name: "l2.log", Data: log2},
		patterns, truth,
		server.SubmitRequest{Algorithm: "heuristic-advanced"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := c.Wait(cctx, st.ID, 5*time.Millisecond)
	if err != nil || final.State != server.StateDone {
		t.Fatalf("wait: %v (state %s)", err, final.State)
	}
	res, err := c.Result(cctx, st.ID)
	if err != nil || len(res.Pairs) == 0 {
		t.Fatalf("result: %v (%d pairs)", err, len(res.Pairs))
	}

	cancel() // the SIGINT/SIGTERM path
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain")
	}
	if runErr != nil || code != exitOK {
		t.Fatalf("run returned %d, %v", code, runErr)
	}

	data, err := os.ReadFile(o.metricsJSON)
	if err != nil {
		t.Fatalf("metrics file: %v", err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, data)
	}
	if snap.Counter("server.jobs_completed") == 0 {
		t.Errorf("flushed metrics missing completions:\n%s", data)
	}
}

func TestRunBadListenAddr(t *testing.T) {
	o := testOptions()
	o.addr = "256.0.0.1:bad"
	code, err := run(context.Background(), o, io.Discard, nil)
	if err == nil || code != exitError {
		t.Fatalf("run = %d, %v; want exit 1 with error", code, err)
	}
}

func TestParseFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("eventmatchd", flag.ContinueOnError)
	o := parseFlags(fs, []string{"-addr", ":0", "-workers", "3", "-queue-depth", "5"})
	if o.addr != ":0" || o.workers != 3 || o.queueDepth != 5 {
		t.Fatalf("parsed %+v", o)
	}
	if o.deadline != 30*time.Second || o.drainTimeout != 15*time.Second {
		t.Fatalf("defaults drifted: %+v", o)
	}
}

// startDaemon re-execs the test binary as the real daemon and scrapes the
// bound address off stdout.
func startDaemon(t *testing.T, args ...string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EVENTMATCHD_BE_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	addrCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "eventmatchd listening on http://"); ok {
				addrCh <- rest
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr, &stderr
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon subprocess never announced its address; stderr:\n%s", stderr.String())
		return nil, "", nil
	}
}

// TestSubprocessSIGTERMDrains sends the real binary a SIGTERM mid-serve and
// requires exit code 0 — the graceful-drain contract at the process level.
func TestSubprocessSIGTERMDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	cmd, addr, stderr := startDaemon(t, "-addr", "127.0.0.1:0", "-metrics-json", metrics)

	c := client.New("http://"+addr, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v; stderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon did not exit after SIGTERM; stderr:\n%s", stderr.String())
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Errorf("metrics not flushed on SIGTERM: %v", err)
	}
}

// TestE2EServe is the CI end-to-end gate (set EVENTMATCHD_E2E=1): the real
// daemon process serves the full lifecycle against the Fig. 1 workload —
// submit → poll → result, parity with the cmd/eventmatch CLI on the same
// inputs, backpressure 429 when the queue is full, cancel mid-search,
// nonzero server telemetry, and a graceful SIGTERM exit 0.
func TestE2EServe(t *testing.T) {
	if os.Getenv("EVENTMATCHD_E2E") != "1" {
		t.Skip("set EVENTMATCHD_E2E=1 to run the end-to-end serve gate")
	}
	dir := t.TempDir()
	log1, log2, patterns, truth := fig1Inputs(t)
	paths := map[string][]byte{
		"l1.log": log1, "l2.log": log2, "patterns.txt": patterns, "truth.txt": truth,
	}
	for name, data := range paths {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	metrics := filepath.Join(dir, "metrics.json")
	cmd, addr, stderr := startDaemon(t,
		"-addr", "127.0.0.1:0",
		"-workers", "1",
		"-queue-depth", "1",
		"-metrics-json", metrics)
	defer func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	c := client.New("http://"+addr, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// 1. Full cycle: submit the Fig. 1 job, poll to done, fetch the result.
	st, err := c.SubmitUpload(ctx,
		client.Upload{Name: "l1.log", Data: log1},
		client.Upload{Name: "l2.log", Data: log2},
		patterns, truth,
		server.SubmitRequest{Algorithm: "heuristic-advanced", TimeoutMS: 60_000})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil || final.State != server.StateDone {
		t.Fatalf("wait: %v (state %s, err %q)", err, final.State, final.Error)
	}
	res, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if res.Quality == nil || res.Quality.FMeasure <= 0 {
		t.Fatalf("quality missing or zero: %+v", res.Quality)
	}

	// 2. Parity: the CLI on the same inputs must print the same mapping.
	cliPairs, cliScore := runCLI(t, dir)
	if len(cliPairs) != len(res.Pairs) {
		t.Fatalf("daemon %d pairs, CLI %d pairs\ndaemon: %v\ncli: %v",
			len(res.Pairs), len(cliPairs), res.Pairs, cliPairs)
	}
	for k, v := range cliPairs {
		if res.Pairs[k] != v {
			t.Errorf("pair %s: daemon %q, CLI %q", k, res.Pairs[k], v)
		}
	}
	if fmt.Sprintf("%.4f", res.Score) != cliScore {
		t.Errorf("daemon score %.4f, CLI score %s", res.Score, cliScore)
	}

	// 3. Backpressure: a slow exact job + one queued job fill the 1-worker /
	// 1-slot daemon; the next submission must be rejected with 429.
	g := gen.RandomPair(3, 14, 60, 12)
	render := func(l *eventmatch.Log) []byte {
		var b strings.Builder
		if err := logio.Write(&b, l, logio.FormatTraceLines); err != nil {
			t.Fatal(err)
		}
		return []byte(b.String())
	}
	slowReq := server.SubmitRequest{Algorithm: "exact", TimeoutMS: 120_000}
	slow1, err := c.SubmitUpload(ctx, client.Upload{Name: "s1.log", Data: render(g.L1)},
		client.Upload{Name: "s2.log", Data: render(g.L2)},
		[]byte(strings.Join(g.Patterns, "\n")), nil, slowReq)
	if err != nil {
		t.Fatalf("slow submit 1: %v", err)
	}
	slow2, err := c.SubmitUpload(ctx, client.Upload{Name: "s1.log", Data: render(g.L1)},
		client.Upload{Name: "s2.log", Data: render(g.L2)},
		[]byte(strings.Join(g.Patterns, "\n")), nil, slowReq)
	if err != nil {
		t.Fatalf("slow submit 2: %v", err)
	}
	var sat *client.SaturatedError
	_, err = c.SubmitUpload(ctx, client.Upload{Name: "s1.log", Data: render(g.L1)},
		client.Upload{Name: "s2.log", Data: render(g.L2)},
		[]byte(strings.Join(g.Patterns, "\n")), nil, slowReq)
	if !errors.As(err, &sat) {
		t.Fatalf("third submission error = %v, want 429/SaturatedError", err)
	}
	if sat.RetryAfter <= 0 {
		t.Errorf("Retry-After hint = %v, want > 0", sat.RetryAfter)
	}

	// 4. Cancel mid-search: the running exact job must come back done,
	// truncated, with a best-so-far mapping and StopReason "canceled".
	if _, err := c.Cancel(ctx, slow1.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	cfinal, err := c.Wait(ctx, slow1.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait canceled: %v", err)
	}
	if cfinal.State != server.StateDone || cfinal.StopReason != "canceled" {
		t.Fatalf("canceled job: state %s stop %q, want done/canceled", cfinal.State, cfinal.StopReason)
	}
	cres, err := c.Result(ctx, slow1.ID)
	if err != nil || len(cres.Pairs) == 0 || !cres.Truncated {
		t.Fatalf("canceled result: %v (pairs %d, truncated %v)", err, len(cres.Pairs), cres.Truncated)
	}
	if _, err := c.Cancel(ctx, slow2.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if _, err := c.Wait(ctx, slow2.ID, 10*time.Millisecond); err != nil {
		t.Fatalf("wait queued-canceled: %v", err)
	}

	// 5. Telemetry: the live snapshot must show real server activity.
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, counter := range []string{"server.jobs_submitted", "server.jobs_completed", "server.jobs_rejected", "server.jobs_canceled"} {
		if snap.Counter(counter) == 0 {
			t.Errorf("telemetry counter %s = 0, want > 0\n%+v", counter, snap.Counters)
		}
	}
	if _, ok := snap.Gauges["server.queue_capacity"]; !ok {
		t.Errorf("telemetry missing queue capacity gauge: %+v", snap.Gauges)
	}

	// 6. Graceful SIGTERM: exit 0 and a flushed metrics file.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v; stderr:\n%s", err, stderr.String())
		}
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon hung on SIGTERM; stderr:\n%s", stderr.String())
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("flushed metrics: %v", err)
	}
	var flushed telemetry.Snapshot
	if err := json.Unmarshal(data, &flushed); err != nil {
		t.Fatalf("flushed metrics JSON: %v\n%s", err, data)
	}
	if flushed.Counter("server.jobs_completed") == 0 {
		t.Errorf("flushed metrics missing completions:\n%s", data)
	}
}

// TestE2ECrashRecovery is the CI crash-recovery gate (set EVENTMATCHD_E2E=1):
// a durable daemon (-data-dir) completes one job and is running a second when
// it gets kill -9 mid-search. A fresh daemon on the same directory must serve
// the completed result from disk with identical pairs and score, re-run the
// interrupted job seeded from its last persisted checkpoint (final score never
// below the checkpointed score), and leave every journaled job terminal. A
// final offline replay of the journal double-checks that.
func TestE2ECrashRecovery(t *testing.T) {
	if os.Getenv("EVENTMATCHD_E2E") != "1" {
		t.Skip("set EVENTMATCHD_E2E=1 to run the crash-recovery gate")
	}
	dataDir := t.TempDir()
	log1, log2, patterns, truth := fig1Inputs(t)
	durableArgs := []string{
		"-addr", "127.0.0.1:0",
		"-workers", "1",
		"-data-dir", dataDir,
		"-checkpoint-every", "25ms",
	}
	cmd, addr, stderr := startDaemon(t, durableArgs...)
	killed := false
	defer func() {
		if !killed && cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	c := client.New("http://"+addr, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// 1. One job completes before the crash; its result must survive it.
	st1, err := c.SubmitUpload(ctx,
		client.Upload{Name: "l1.log", Data: log1},
		client.Upload{Name: "l2.log", Data: log2},
		patterns, truth,
		server.SubmitRequest{Algorithm: "heuristic-advanced", TimeoutMS: 60_000})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if final, err := c.Wait(ctx, st1.ID, 10*time.Millisecond); err != nil || final.State != server.StateDone {
		t.Fatalf("wait: %v (state %s)", err, final.State)
	}
	res1, err := c.Result(ctx, st1.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}

	// 2. A slow exact job; wait until a best-so-far checkpoint with a real
	// mapping hits the journal, so the crash lands mid-search with durable
	// progress behind it.
	g := gen.RandomPair(3, 14, 60, 12)
	render := func(l *eventmatch.Log) []byte {
		var b strings.Builder
		if err := logio.Write(&b, l, logio.FormatTraceLines); err != nil {
			t.Fatal(err)
		}
		return []byte(b.String())
	}
	st2, err := c.SubmitUpload(ctx,
		client.Upload{Name: "s1.log", Data: render(g.L1)},
		client.Upload{Name: "s2.log", Data: render(g.L2)},
		[]byte(strings.Join(g.Patterns, "\n")), nil,
		server.SubmitRequest{Algorithm: "exact", TimeoutMS: 120_000})
	if err != nil {
		t.Fatalf("slow submit: %v", err)
	}
	ckScore := 0.0
	ckDeadline := time.Now().Add(60 * time.Second)
	for {
		if s, ok := bestJournalCheckpoint(t, dataDir, st2.ID); ok {
			ckScore = s
			break
		}
		if time.Now().After(ckDeadline) {
			t.Fatalf("no checkpoint for %s reached the journal; stderr:\n%s", st2.ID, stderr.String())
		}
		time.Sleep(25 * time.Millisecond)
	}

	// 3. Crash hard: no drain, no final journal records.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	killed = true

	// 4. Restart on the same directory. The connection-refused window while
	// the daemon reboots is exactly what the client retry layer is for.
	cmd2, addr2, stderr2 := startDaemon(t, durableArgs...)
	defer func() {
		if cmd2.ProcessState == nil {
			cmd2.Process.Kill()
			cmd2.Wait()
		}
	}()
	c2 := client.New("http://"+addr2, nil).WithRetry(client.DefaultRetryPolicy())

	// 5. The completed job's result is served from disk: exact parity.
	res1b, err := c2.Result(ctx, st1.ID)
	if err != nil {
		t.Fatalf("recovered result: %v; stderr:\n%s", err, stderr2.String())
	}
	if res1b.Score != res1.Score || len(res1b.Pairs) != len(res1.Pairs) {
		t.Fatalf("recovered result drifted: score %v→%v, %d→%d pairs",
			res1.Score, res1b.Score, len(res1.Pairs), len(res1b.Pairs))
	}
	for k, v := range res1.Pairs {
		if res1b.Pairs[k] != v {
			t.Errorf("recovered pair %s: %q, want %q", k, res1b.Pairs[k], v)
		}
	}

	// 6. The interrupted job was requeued and re-seeded. Let the resumed
	// search run briefly, then cancel: the anytime result must score at least
	// the persisted checkpoint (the seed is a floor, not a hint).
	runDeadline := time.Now().Add(60 * time.Second)
	for {
		js, err := c2.Status(ctx, st2.ID)
		if err != nil {
			t.Fatalf("recovered status: %v", err)
		}
		if js.State == server.StateRunning || js.State == server.StateDone || js.State == server.StateFailed {
			break
		}
		if time.Now().After(runDeadline) {
			t.Fatalf("requeued job never ran (state %s); stderr:\n%s", js.State, stderr2.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(250 * time.Millisecond)
	c2.Cancel(ctx, st2.ID) //nolint:errcheck // no-op if the job already finished
	final2, err := c2.Wait(ctx, st2.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait requeued: %v", err)
	}
	if final2.State != server.StateDone {
		t.Fatalf("requeued job ended %s (%s), want done; stderr:\n%s", final2.State, final2.Error, stderr2.String())
	}
	res2, err := c2.Result(ctx, st2.ID)
	if err != nil || len(res2.Pairs) == 0 {
		t.Fatalf("requeued result: %v (%d pairs)", err, len(res2.Pairs))
	}
	if res2.Score < ckScore-1e-9 {
		t.Fatalf("resumed search regressed below its checkpoint: %v < %v", res2.Score, ckScore)
	}

	// 7. Clean exit, then an offline replay: every journaled job terminal,
	// results still on disk, journal un-torn after the repair + reappends.
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd2.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("recovered daemon exited non-zero: %v; stderr:\n%s", err, stderr2.String())
		}
	case <-time.After(60 * time.Second):
		cmd2.Process.Kill()
		t.Fatalf("recovered daemon hung on SIGTERM; stderr:\n%s", stderr2.String())
	}
	stc, rec, err := store.Open(ctx, dataDir, store.Options{Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatalf("final replay: %v", err)
	}
	defer stc.Close()
	if rec.Torn != 0 {
		t.Errorf("journal still torn after repair: %d", rec.Torn)
	}
	if len(rec.Jobs) != 2 {
		t.Fatalf("final replay found %d jobs, want 2", len(rec.Jobs))
	}
	for _, j := range rec.Jobs {
		if j.ResultHash == "" && j.State != "done" && j.State != "failed" && j.State != "canceled" {
			t.Errorf("job %s not terminal after recovery: state %q", j.ID, j.State)
		}
		if j.ResultHash != "" {
			if _, err := stc.Artifact(ctx, j.ResultHash); err != nil {
				t.Errorf("job %s result artifact missing: %v", j.ID, err)
			}
		}
	}
}

// bestJournalCheckpoint scans the journal for jobID's highest-scoring
// checkpoint that carries a non-empty mapping.
func bestJournalCheckpoint(t *testing.T, dataDir, jobID string) (float64, bool) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dataDir, "journal.log"))
	if err != nil {
		return 0, false
	}
	best, found := 0.0, false
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) < 10 {
			continue
		}
		var r store.Record
		if json.Unmarshal(line[9:], &r) != nil {
			continue
		}
		if r.Type == store.RecordCheckpoint && r.JobID == jobID &&
			r.Checkpoint != nil && len(r.Checkpoint.Pairs) > 0 {
			found = true
			if r.Checkpoint.Score > best {
				best = r.Checkpoint.Score
			}
		}
	}
	return best, found
}

// runCLI runs cmd/eventmatch on the written Fig. 1 inputs and parses its
// "A -> 1" mapping lines and the -stats score.
func runCLI(t *testing.T, dir string) (map[string]string, string) {
	t.Helper()
	out, err := exec.Command("go", "run", "eventmatch/cmd/eventmatch",
		"-algorithm", "heuristic-advanced",
		"-patterns", filepath.Join(dir, "patterns.txt"),
		"-stats",
		filepath.Join(dir, "l1.log"), filepath.Join(dir, "l2.log")).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			t.Fatalf("cmd/eventmatch: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("cmd/eventmatch: %v", err)
	}
	pairs := make(map[string]string)
	score := ""
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			for _, field := range strings.Fields(rest) {
				if v, ok := strings.CutPrefix(field, "score="); ok {
					score = v
				}
			}
			continue
		}
		if a, b, ok := strings.Cut(line, " -> "); ok {
			pairs[strings.TrimSpace(a)] = strings.TrimSpace(b)
		}
	}
	if len(pairs) == 0 || score == "" {
		t.Fatalf("could not parse CLI output:\n%s", out)
	}
	return pairs, score
}

// TestE2EFairness is the CI multi-tenant fairness gate (set
// EVENTMATCHD_E2E=1): the real daemon runs with per-tenant rate limits,
// queue slices and fair-share weights while tenant "heavy" floods it with
// slow exact jobs and tenant "light" keeps submitting quick ones. The
// contract under contention: light's jobs are never starved (bounded p95
// turnaround), light's concurrent results are bit-identical to its serial
// baseline, heavy's flood is answered with per-tenant 429s carrying sane
// Retry-After hints, and the per-tenant telemetry rollup accounts for all of
// it. Set EVENTMATCHD_FAIRNESS_SNAPSHOT to keep the metrics snapshot (CI
// uploads it as an artifact).
func TestE2EFairness(t *testing.T) {
	if os.Getenv("EVENTMATCHD_E2E") != "1" {
		t.Skip("set EVENTMATCHD_E2E=1 to run the fairness gate")
	}
	log1, log2, patterns, truth := fig1Inputs(t)
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	cmd, addr, stderr := startDaemon(t,
		"-addr", "127.0.0.1:0",
		"-workers", "2",
		"-queue-depth", "12",
		"-tenant-queue-depth", "8",
		"-tenant-weights", "heavy=1,light=3",
		"-tenant-rates", "20/s",
		"-metrics-json", metrics)
	defer func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	base := client.New("http://"+addr, nil)
	heavyC := base.WithTenant("heavy")
	lightC := base.WithTenant("light")
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	submitLight := func() (server.JobStatus, error) {
		return lightC.SubmitUpload(ctx,
			client.Upload{Name: "l1.log", Data: log1},
			client.Upload{Name: "l2.log", Data: log2},
			patterns, truth,
			server.SubmitRequest{Algorithm: "heuristic-advanced", TimeoutMS: 60_000})
	}

	// 1. Serial baseline: one light job on the idle daemon. Every light
	// result produced under the flood must match it bit for bit.
	st0, err := submitLight()
	if err != nil {
		t.Fatalf("baseline submit: %v", err)
	}
	if final, err := lightC.Wait(ctx, st0.ID, 10*time.Millisecond); err != nil || final.State != server.StateDone {
		t.Fatalf("baseline wait: %v (state %s)", err, final.State)
	}
	baseline, err := lightC.Result(ctx, st0.ID)
	if err != nil {
		t.Fatalf("baseline result: %v", err)
	}

	// 2. The heavy flood: slow exact jobs submitted far faster than the
	// 20/s budget until the limiter pushes back and the tenant's queue
	// slice is full. Runs concurrently with the light submitter below.
	g := gen.RandomPair(3, 14, 60, 12)
	render := func(l *eventmatch.Log) []byte {
		var b strings.Builder
		if err := logio.Write(&b, l, logio.FormatTraceLines); err != nil {
			t.Fatal(err)
		}
		return []byte(b.String())
	}
	h1, h2 := render(g.L1), render(g.L2)
	hpat := []byte(strings.Join(g.Patterns, "\n"))

	var (
		heavyIDs    []string
		rateLimited int
		queueFull   int
	)
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) && (len(heavyIDs) < 10 || rateLimited < 3) {
			st, err := heavyC.SubmitUpload(ctx,
				client.Upload{Name: "h1.log", Data: h1},
				client.Upload{Name: "h2.log", Data: h2},
				hpat, nil,
				server.SubmitRequest{Algorithm: "exact", TimeoutMS: 1200})
			var sat *client.SaturatedError
			switch {
			case err == nil:
				if len(heavyIDs) < 10 {
					heavyIDs = append(heavyIDs, st.ID)
				} else {
					heavyC.Cancel(ctx, st.ID) //nolint:errcheck // over-target stragglers
				}
			case errors.As(err, &sat):
				if sat.RateLimited() {
					rateLimited++
					if sat.RetryAfter <= 0 || sat.RetryAfter > 5*time.Second {
						t.Errorf("rate-limit Retry-After = %v, want (0s, 5s]", sat.RetryAfter)
					}
				} else {
					queueFull++
					if sat.RetryAfter <= 0 {
						t.Errorf("queue-full Retry-After = %v, want > 0", sat.RetryAfter)
					}
				}
			default:
				t.Errorf("heavy submit: %v", err)
				return
			}
			time.Sleep(15 * time.Millisecond)
		}
	}()

	// 3. The light tenant under the flood: sequential quick jobs, each
	// timed submit-to-done and checked against the serial baseline.
	const lightJobs = 10
	var latencies []time.Duration
	for i := 0; i < lightJobs; i++ {
		start := time.Now()
		st, err := submitLight()
		var sat *client.SaturatedError
		if errors.As(err, &sat) {
			// The aggregate queue can briefly fill; honor the hint once.
			time.Sleep(sat.RetryAfter)
			st, err = submitLight()
		}
		if err != nil {
			t.Fatalf("light submit %d: %v", i, err)
		}
		final, err := lightC.Wait(ctx, st.ID, 10*time.Millisecond)
		if err != nil || final.State != server.StateDone {
			t.Fatalf("light wait %d: %v (state %s)", i, err, final.State)
		}
		latencies = append(latencies, time.Since(start))
		res, err := lightC.Result(ctx, st.ID)
		if err != nil {
			t.Fatalf("light result %d: %v", i, err)
		}
		if res.Score != baseline.Score || len(res.Pairs) != len(baseline.Pairs) {
			t.Fatalf("light job %d drifted from serial baseline: score %v→%v, %d→%d pairs",
				i, baseline.Score, res.Score, len(baseline.Pairs), len(res.Pairs))
		}
		for k, v := range baseline.Pairs {
			if res.Pairs[k] != v {
				t.Errorf("light job %d pair %s: %q, want %q", i, k, res.Pairs[k], v)
			}
		}
	}
	select {
	case <-floodDone:
	case <-time.After(30 * time.Second):
		t.Fatal("heavy flood never finished")
	}

	// 4. Fairness: light's p95 turnaround stays bounded even though heavy
	// kept both workers saturated with 1.2s exact searches. Without the
	// weighted-fair queue, every light job would sit behind heavy's whole
	// backlog (~5s each); with it, a light job waits at most one heavy
	// service time plus its own few-ms run.
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p95 := sorted[len(sorted)*95/100]
	if p95 > 10*time.Second {
		t.Errorf("light p95 turnaround = %v, want <= 10s (all: %v)", p95, latencies)
	}

	// 5. The flood was answered with per-tenant policy, not starvation:
	// rate-limit 429s for heavy, none for light, and every admitted heavy
	// job still reaches a real terminal state.
	if rateLimited < 3 {
		t.Errorf("heavy rate-limit rejections = %d, want >= 3 (queue-full %d)", rateLimited, queueFull)
	}
	for _, id := range heavyIDs {
		final, err := heavyC.Wait(ctx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("heavy wait %s: %v", id, err)
		}
		if final.State != server.StateDone {
			t.Errorf("heavy job %s ended %s (%s), want done", id, final.State, final.Error)
		}
	}

	// 6. The per-tenant telemetry rollup accounts for both tenants.
	snap, err := base.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if got := snap.Counter("server.tenant.heavy.rejected_rate"); got < 3 {
		t.Errorf("server.tenant.heavy.rejected_rate = %d, want >= 3", got)
	}
	if got := snap.Counter("server.tenant.light.rejected_rate"); got != 0 {
		t.Errorf("server.tenant.light.rejected_rate = %d, want 0", got)
	}
	if got := snap.Counter("server.tenant.light.completed"); got != lightJobs+1 {
		t.Errorf("server.tenant.light.completed = %d, want %d", got, lightJobs+1)
	}
	if got := snap.Counter("server.jobs_rate_limited"); got < 3 {
		t.Errorf("server.jobs_rate_limited = %d, want >= 3", got)
	}
	if n, total := snap.Timer("server.tenant.light.job_wait"); n == 0 {
		t.Error("server.tenant.light.job_wait never observed")
	} else if mean := total / time.Duration(n); mean > 5*time.Second {
		t.Errorf("light mean queue wait = %v, want <= 5s", mean)
	}
	if path := os.Getenv("EVENTMATCHD_FAIRNESS_SNAPSHOT"); path != "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Errorf("fairness snapshot: %v", err)
		}
	}

	// 7. Graceful exit under multi-tenant config: SIGTERM still drains to 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v; stderr:\n%s", err, stderr.String())
		}
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon hung on SIGTERM; stderr:\n%s", stderr.String())
	}
}
