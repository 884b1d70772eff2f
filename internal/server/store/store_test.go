package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"eventmatch/internal/telemetry"
)

func testSpec() *SpecRecord {
	return &SpecRecord{
		Algorithm: "astar",
		Log1:      LogRef{Key: strings.Repeat("a", 64), Format: "log"},
		Log2:      LogRef{Key: strings.Repeat("b", 64), Format: "log"},
		Patterns:  []string{"A -> B"},
		TimeoutMS: 5000,
	}
}

func mustOpen(t *testing.T, dir string) (*Store, *Recovery) {
	t.Helper()
	s, rec, err := Open(context.Background(), dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, rec
}

// encode renders records into journal bytes for replay-table tests.
func encode(t *testing.T, recs ...*Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		line, err := encodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s, rec := mustOpen(t, dir)
	if len(rec.Jobs) != 0 || rec.Records != 0 {
		t.Fatalf("fresh store recovered %+v", rec)
	}
	if err := s.AppendSubmit(ctx, "j1", testSpec(), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendState(ctx, "j1", "running", "", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCheckpoint(ctx, "j1", &CheckpointRecord{Pairs: map[string]string{"A": "a"}, Score: 0.5}, 3); err != nil {
		t.Fatal(err)
	}
	hash, err := s.PutResult(ctx, []byte(`{"score":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendResult(ctx, "j1", hash, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendState(ctx, "j1", "done", "", 5); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSubmit(ctx, "j2", testSpec(), 6); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2 := mustOpen(t, dir)
	if rec2.Torn != 0 || rec2.Skipped != 0 {
		t.Fatalf("clean reopen reported torn=%d skipped=%d", rec2.Torn, rec2.Skipped)
	}
	if rec2.MaxJobSeq != 2 {
		t.Fatalf("MaxJobSeq = %d, want 2", rec2.MaxJobSeq)
	}
	if len(rec2.Jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(rec2.Jobs))
	}
	j1 := rec2.Jobs[0]
	if j1.ID != "j1" || j1.State != "done" || j1.ResultHash != hash {
		t.Fatalf("j1 recovered as %+v", j1)
	}
	if j1.Checkpoint == nil || j1.Checkpoint.Score != 0.5 || j1.Checkpoint.Pairs["A"] != "a" {
		t.Fatalf("j1 checkpoint %+v", j1.Checkpoint)
	}
	j2 := rec2.Jobs[1]
	if j2.ID != "j2" || j2.State != "queued" || j2.ResultHash != "" {
		t.Fatalf("j2 recovered as %+v", j2)
	}
	got, err := s2.Artifact(ctx, hash)
	if err != nil || string(got) != `{"score":1}` {
		t.Fatalf("result artifact: %q, %v", got, err)
	}
}

// TestReplayTable covers the journal corruption matrix: clean shutdown, a
// kill mid-append (torn last record, with and without CRC damage), duplicate
// state transitions, and unknown record types.
func TestReplayTable(t *testing.T) {
	spec := testSpec()
	base := func(t *testing.T) []byte {
		return encode(t,
			&Record{Type: RecordSubmit, JobID: "j1", Spec: spec},
			&Record{Type: RecordState, JobID: "j1", State: "running"},
		)
	}
	cases := []struct {
		name    string
		journal func(t *testing.T) []byte
		// expectations
		jobs    int
		state   string // state of job 0, if jobs > 0
		torn    int
		skipped int
	}{
		{
			name:    "clean shutdown",
			journal: base,
			jobs:    1, state: "running",
		},
		{
			name: "kill mid-append truncates last record",
			journal: func(t *testing.T) []byte {
				full := append(base(t), encode(t, &Record{Type: RecordState, JobID: "j1", State: "done"})...)
				return full[:len(full)-7] // cut inside the final record
			},
			jobs: 1, state: "running", torn: 1,
		},
		{
			name: "torn last record missing only its newline",
			journal: func(t *testing.T) []byte {
				full := append(base(t), encode(t, &Record{Type: RecordState, JobID: "j1", State: "done"})...)
				return full[:len(full)-1]
			},
			jobs: 1, state: "running", torn: 1,
		},
		{
			name: "corrupt CRC on last record",
			journal: func(t *testing.T) []byte {
				full := append(base(t), encode(t, &Record{Type: RecordState, JobID: "j1", State: "done"})...)
				full[len(full)-3] ^= 0xff // flip a byte inside the JSON body
				return full
			},
			jobs: 1, state: "running", torn: 1,
		},
		{
			name: "duplicate transition is idempotent",
			journal: func(t *testing.T) []byte {
				return append(base(t), encode(t,
					&Record{Type: RecordState, JobID: "j1", State: "running"},
					&Record{Type: RecordState, JobID: "j1", State: "failed", Error: "boom"},
				)...)
			},
			jobs: 1, state: "failed",
		},
		{
			name: "unknown record type skipped",
			journal: func(t *testing.T) []byte {
				return append(base(t), encode(t,
					&Record{Type: "compaction-hint", JobID: "j1"},
					&Record{Type: RecordState, JobID: "j1", State: "done"},
				)...)
			},
			jobs: 1, state: "done", skipped: 1,
		},
		{
			name: "record for unknown job skipped",
			journal: func(t *testing.T) []byte {
				return append(base(t), encode(t,
					&Record{Type: RecordState, JobID: "j99", State: "done"},
				)...)
			},
			jobs: 1, state: "running", skipped: 1,
		},
		{
			name: "duplicate submit skipped",
			journal: func(t *testing.T) []byte {
				return append(base(t), encode(t,
					&Record{Type: RecordSubmit, JobID: "j1", Spec: spec},
				)...)
			},
			jobs: 1, state: "running", skipped: 1,
		},
		{
			name:    "empty journal",
			journal: func(t *testing.T) []byte { return nil },
		},
		{
			name: "best checkpoint wins",
			journal: func(t *testing.T) []byte {
				return append(base(t), encode(t,
					&Record{Type: RecordCheckpoint, JobID: "j1", Checkpoint: &CheckpointRecord{Score: 0.9, Pairs: map[string]string{"A": "a"}}},
					&Record{Type: RecordCheckpoint, JobID: "j1", Checkpoint: &CheckpointRecord{Score: 0.3, Pairs: map[string]string{"A": "b"}}},
				)...)
			},
			jobs: 1, state: "running",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := replay(tc.journal(t))
			if len(rec.Jobs) != tc.jobs {
				t.Fatalf("recovered %d jobs, want %d", len(rec.Jobs), tc.jobs)
			}
			if tc.jobs > 0 && rec.Jobs[0].State != tc.state {
				t.Fatalf("job state %q, want %q", rec.Jobs[0].State, tc.state)
			}
			if rec.Torn != tc.torn {
				t.Fatalf("torn = %d, want %d", rec.Torn, tc.torn)
			}
			if rec.Skipped != tc.skipped {
				t.Fatalf("skipped = %d, want %d", rec.Skipped, tc.skipped)
			}
			if tc.name == "best checkpoint wins" {
				ck := rec.Jobs[0].Checkpoint
				if ck == nil || ck.Score != 0.9 || ck.Pairs["A"] != "a" {
					t.Fatalf("checkpoint %+v, want the 0.9 snapshot", ck)
				}
			}
		})
	}
}

func TestReplayStopsAtMidStreamCorruption(t *testing.T) {
	// A corrupt record in the MIDDLE loses framing: everything after it is
	// dropped too, not resynced.
	good := encode(t,
		&Record{Type: RecordSubmit, JobID: "j1", Spec: testSpec()},
		&Record{Type: RecordState, JobID: "j1", State: "running"},
		&Record{Type: RecordSubmit, JobID: "j2", Spec: testSpec()},
	)
	lines := bytes.SplitAfter(good, []byte("\n"))
	lines[1][12] ^= 0xff // corrupt record 2's body
	data := bytes.Join(lines, nil)
	rec := replay(data)
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "j1" || rec.Jobs[0].State != "queued" {
		t.Fatalf("recovered %+v, want only j1@queued", rec.Jobs)
	}
	if rec.Torn != 1 {
		t.Fatalf("torn = %d, want 1", rec.Torn)
	}
}

// TestTornTailRepairedOnOpen: Open must truncate a torn tail before
// appending, or the first post-crash record concatenates onto the partial
// line and every record after it is lost to the NEXT replay.
func TestTornTailRepairedOnOpen(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	full := encode(t,
		&Record{Type: RecordSubmit, JobID: "j1", Spec: testSpec()},
		&Record{Type: RecordState, JobID: "j1", State: "running"},
	)
	torn := full[:len(full)-7] // cut the last record mid-line, no newline
	writeFileVia(t, OSFS{}, filepath.Join(dir, journalName), torn)

	s, rec := mustOpen(t, dir)
	if rec.Torn != 1 || len(rec.Jobs) != 1 || rec.Jobs[0].State != "queued" {
		t.Fatalf("first replay: torn=%d jobs=%+v", rec.Torn, rec.Jobs)
	}
	// Append across two more crashes-worth of reopens.
	if err := s.AppendState(ctx, "j1", "running", "", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendState(ctx, "j1", "done", "", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec2 := mustOpen(t, dir)
	if rec2.Torn != 0 {
		t.Fatalf("second replay still torn: %d", rec2.Torn)
	}
	if len(rec2.Jobs) != 1 || rec2.Jobs[0].State != "done" {
		t.Fatalf("post-repair appends lost: %+v", rec2.Jobs)
	}
	if rec2.Records != 3 { // submit + 2 post-repair states
		t.Fatalf("replayed %d records, want 3", rec2.Records)
	}
}

func writeFileVia(t *testing.T, fsys FS, path string, data []byte) {
	t.Helper()
	f, err := fsys.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestArtifacts(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s, _ := mustOpen(t, dir)
	key := strings.Repeat("c", 64)
	if _, err := s.Artifact(ctx, key); err == nil {
		t.Fatal("artifact present before write")
	}
	if err := s.PutArtifact(ctx, key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Artifact(ctx, key); err != nil {
		t.Fatalf("artifact missing after write: %v", err)
	}
	// Idempotent re-put.
	if err := s.PutArtifact(ctx, key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Artifact(ctx, key)
	if err != nil || string(got) != "payload" {
		t.Fatalf("artifact read: %q, %v", got, err)
	}
	// Path traversal and junk keys are rejected.
	for _, bad := range []string{"../../etc/passwd", "abc", "", "ZZ" + strings.Repeat("a", 62)} {
		if err := s.PutArtifact(ctx, bad, []byte("x")); err == nil {
			t.Fatalf("key %q accepted", bad)
		}
		if _, err := s.Artifact(ctx, bad); err == nil {
			t.Fatalf("key %q readable", bad)
		}
	}
}

func TestContextCancellationShortCircuits(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.AppendSubmit(ctx, "j1", testSpec(), 0); err == nil {
		t.Fatal("append with canceled ctx succeeded")
	}
	if err := s.PutArtifact(ctx, strings.Repeat("d", 64), []byte("x")); err == nil {
		t.Fatal("put with canceled ctx succeeded")
	}
	if _, err := s.Artifact(ctx, strings.Repeat("d", 64)); err == nil {
		t.Fatal("read with canceled ctx succeeded")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendState(context.Background(), "j1", "done", "", 0); err == nil {
		t.Fatal("append after close succeeded")
	}
}

func TestTelemetryCounters(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	s, _, err := Open(ctx, dir, Options{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSubmit(ctx, "j1", testSpec(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutResult(ctx, []byte("r")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got := reg.Counter("store.journal_appends").Value(); got != 1 {
		t.Fatalf("journal_appends = %d, want 1", got)
	}
	if got := reg.Counter("store.journal_fsyncs").Value(); got != 1 {
		t.Fatalf("journal_fsyncs = %d, want 1", got)
	}
	if got := reg.Counter("store.artifacts_written").Value(); got != 1 {
		t.Fatalf("artifacts_written = %d, want 1", got)
	}

	reg2 := telemetry.NewRegistry()
	s2, _, err := Open(ctx, dir, Options{Telemetry: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := reg2.Counter("store.journal_replayed").Value(); got != 1 {
		t.Fatalf("journal_replayed = %d, want 1", got)
	}
	if got := reg2.Counter("store.recovered_jobs").Value(); got != 1 {
		t.Fatalf("recovered_jobs = %d, want 1", got)
	}
}

// TestRestartStress restarts the store while submitter goroutines are
// appending; run under -race. Every append that reported success must be
// intact after the final replay, and clean restarts must never tear records.
func TestRestartStress(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	var cur atomic.Pointer[Store]
	s, _ := mustOpen(t, dir)
	cur.Store(s)

	const submitters = 4
	var wg sync.WaitGroup
	var acked atomic.Int64
	stop := make(chan struct{})
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("j%d", g*1_000_000+i)
				// Appends racing a restart may fail with "journal closed";
				// that is the contract — only acked appends must survive.
				if err := cur.Load().AppendSubmit(ctx, id, testSpec(), 0); err == nil {
					acked.Add(1)
				}
			}
		}(g)
	}

	for r := 0; r < 5; r++ {
		old := cur.Load()
		next, rec, err := Open(ctx, dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Torn != 0 {
			t.Fatalf("restart %d: torn records in a crash-free run: %d", r, rec.Torn)
		}
		cur.Store(next)
		old.Close()
	}
	close(stop)
	wg.Wait()
	final := cur.Load()
	final.Close()

	data, err := OSFS{}.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	rec := replay(data)
	if rec.Torn != 0 {
		t.Fatalf("final journal has %d torn records", rec.Torn)
	}
	if int64(len(rec.Jobs)) < acked.Load() {
		t.Fatalf("replay found %d jobs, but %d appends were acked", len(rec.Jobs), acked.Load())
	}
}

// TestSessionRoundTrip journals three streaming sessions (one left open, one
// closed cleanly, one aborted) and checks that a reopen replays each one's
// spec, deltas in admission order, end state and final mapping.
func TestSessionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s, _ := mustOpen(t, dir)
	spec := &SessionRecord{Algorithm: "exact", Log1: LogRef{Key: strings.Repeat("c", 64), Format: "log"}, Patterns: []string{"SEQ(A,B)"}}
	final := &SessionFinalRecord{Revision: 3, Pairs: map[string]string{"A": "x", "B": "y"}, Score: 0.75}
	steps := []func() error{
		func() error { return s.AppendSessionOpen(ctx, "s1", spec, 1) },
		func() error { return s.AppendSessionOpen(ctx, "s2", spec, 2) },
		func() error { return s.AppendSessionDelta(ctx, "s1", []string{"x y"}, 3) },
		func() error { return s.AppendSessionDelta(ctx, "s2", []string{"y x", "x"}, 4) },
		func() error { return s.AppendSessionDelta(ctx, "s1", []string{"y"}, 5) },
		func() error { return s.AppendSessionClose(ctx, "s2", "closed", final, 6) },
		func() error { return s.AppendSessionOpen(ctx, "s3", spec, 7) },
		func() error { return s.AppendSessionClose(ctx, "s3", "aborted", nil, 8) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir)
	if rec.Torn != 0 || rec.Skipped != 0 || rec.Records != len(steps) {
		t.Fatalf("reopen: records=%d torn=%d skipped=%d", rec.Records, rec.Torn, rec.Skipped)
	}
	if rec.MaxSessionSeq != 3 {
		t.Errorf("MaxSessionSeq = %d, want 3", rec.MaxSessionSeq)
	}
	if len(rec.Sessions) != 3 {
		t.Fatalf("recovered %d sessions, want 3", len(rec.Sessions))
	}
	s1, s2, s3 := rec.Sessions[0], rec.Sessions[1], rec.Sessions[2]
	if s1.ID != "s1" || s1.State != "open" || s1.Terminal() || s1.Final != nil {
		t.Errorf("s1 recovered as %+v", s1)
	}
	if want := [][]string{{"x y"}, {"y"}}; fmt.Sprint(s1.Deltas) != fmt.Sprint(want) {
		t.Errorf("s1 deltas = %q, want %q", s1.Deltas, want)
	}
	if s1.Spec.Algorithm != "exact" || s1.Spec.Log1 != spec.Log1 || fmt.Sprint(s1.Spec.Patterns) != "[SEQ(A,B)]" {
		t.Errorf("s1 spec = %+v", s1.Spec)
	}
	if s2.ID != "s2" || s2.State != "closed" || !s2.Terminal() {
		t.Errorf("s2 recovered as %+v", s2)
	}
	if s2.Final == nil || s2.Final.Revision != 3 || s2.Final.Score != 0.75 || s2.Final.Pairs["B"] != "y" {
		t.Errorf("s2 final = %+v", s2.Final)
	}
	if s3.ID != "s3" || s3.State != "aborted" || !s3.Terminal() || s3.Final != nil || len(s3.Deltas) != 0 {
		t.Errorf("s3 recovered as %+v", s3)
	}
}

// TestOSFSRemove checks the real file system's Remove: it deletes a file and
// reports a missing one as fs.ErrNotExist.
func TestOSFSRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact")
	var fsys OSFS
	if err := os.WriteFile(path, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(path); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := fsys.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Stat after Remove: %v, want not-exist", err)
	}
	if err := fsys.Remove(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("second Remove: %v, want not-exist", err)
	}
}
