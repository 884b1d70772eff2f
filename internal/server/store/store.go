// Package store is eventmatchd's durability layer: an append-only, fsync'd
// job journal plus a content-addressed artifact directory.
//
// Layout under the data dir:
//
//	journal.log              append-only journal (see journal.go)
//	artifacts/<sha256-hex>   uploaded logs and result JSON blobs
//
// The journal is the write-ahead log for the job lifecycle: every state
// transition is appended and fsync'd BEFORE the in-memory transition becomes
// visible, so a crash can lose at most work the client was never told about.
// Artifacts are written atomically (temp file + fsync + rename) and keyed by
// content hash, so replays and retries are idempotent and uploads shared
// between jobs are stored once.
//
// Open replays the journal, tolerating a torn trailing record (the normal
// kill -9 signature), and hands back a Recovery the server uses to re-serve
// completed results, re-enqueue interrupted jobs, and re-seed searches from
// their last persisted checkpoint.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"regexp"
	"sync"

	"eventmatch/internal/telemetry"
)

const (
	journalName  = "journal.log"
	artifactsDir = "artifacts"
)

// Options configures Open.
type Options struct {
	// FS overrides the filesystem (fault-injection tests); nil means OSFS.
	FS FS
	// Telemetry receives store counters (nil-safe).
	Telemetry *telemetry.Registry
}

// Store is the durable side of eventmatchd. All mutation methods take a
// context first and honor its cancellation before touching the disk; a
// single mutex serializes journal appends so records never interleave.
type Store struct {
	dir string
	fs  FS

	mu      sync.Mutex
	journal File

	appends   *telemetry.Counter
	fsyncs    *telemetry.Counter
	syncTime  *telemetry.Timer
	artifacts *telemetry.Counter
}

// Open opens (creating if needed) the store rooted at dir, replays the
// journal, and returns the store plus the recovered state. The returned
// Recovery is never nil on success.
func Open(ctx context.Context, dir string, opts Options) (*Store, *Recovery, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	if err := fsys.MkdirAll(filepath.Join(dir, artifactsDir), 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	jpath := filepath.Join(dir, journalName)
	var data []byte
	if _, err := fsys.Stat(jpath); err == nil {
		data, err = fsys.ReadFile(jpath)
		if err != nil {
			return nil, nil, fmt.Errorf("store: reading journal: %w", err)
		}
	}
	rec := replay(data)

	// Repair a torn tail before reopening for append. The torn bytes usually
	// lack a trailing newline, so appending after them would concatenate the
	// first post-crash record onto the partial line — corrupting it and hiding
	// every later record from the NEXT replay. Rewriting the well-formed
	// prefix atomically (temp + fsync + rename) keeps the journal append-safe
	// across any number of crashes.
	if rec.Torn > 0 && rec.goodPrefix < len(data) {
		if err := rewriteJournal(fsys, jpath, data[:rec.goodPrefix]); err != nil {
			return nil, nil, err
		}
	}

	jf, err := fsys.OpenAppend(jpath)
	if err != nil {
		return nil, nil, fmt.Errorf("store: opening journal: %w", err)
	}
	reg := opts.Telemetry
	s := &Store{
		dir:       dir,
		fs:        fsys,
		journal:   jf,
		appends:   reg.Counter("store.journal_appends"),
		fsyncs:    reg.Counter("store.journal_fsyncs"),
		syncTime:  reg.Timer("store.journal_fsync"),
		artifacts: reg.Counter("store.artifacts_written"),
	}
	reg.Counter("store.journal_replayed").Add(int64(rec.Records))
	reg.Counter("store.journal_torn").Add(int64(rec.Torn))
	reg.Counter("store.journal_skipped").Add(int64(rec.Skipped))
	reg.Counter("store.recovered_jobs").Add(int64(len(rec.Jobs)))
	return s, rec, nil
}

// rewriteJournal atomically replaces the journal with the given bytes
// (temp file + fsync + rename), used to drop a torn tail at Open time.
func rewriteJournal(fsys FS, jpath string, data []byte) error {
	tmp := tmpName(jpath)
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: journal repair temp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("store: journal repair write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("store: journal repair fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("store: journal repair close: %w", err)
	}
	if err := fsys.Rename(tmp, jpath); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("store: journal repair rename: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(jpath)); err != nil {
		return fmt.Errorf("store: journal repair dir sync: %w", err)
	}
	return nil
}

// Close releases the journal handle. Append* calls after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	//matchlint:ignore lockheld -- holding s.mu here is what guarantees no append interleaves with the final close
	err := s.journal.Close()
	s.journal = nil
	return err
}

// append encodes r, appends it to the journal and fsyncs, all under the
// store mutex. This is the WAL primitive every mutation method funnels into.
func (s *Store) append(ctx context.Context, r *Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	line, err := encodeRecord(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return fmt.Errorf("store: journal closed")
	}
	//matchlint:ignore lockheld -- WAL by design: s.mu serializes appends so journal records never interleave
	if _, err := s.journal.Write(line); err != nil {
		return fmt.Errorf("store: journal append: %w", err)
	}
	s.appends.Inc()
	span := s.syncTime.Start()
	//matchlint:ignore lockheld -- WAL by design: the fsync must land before the next append is admitted
	err = s.journal.Sync()
	span.Stop()
	if err != nil {
		return fmt.Errorf("store: journal fsync: %w", err)
	}
	s.fsyncs.Inc()
	return nil
}

// AppendSubmit journals a new job and its re-runnable spec.
func (s *Store) AppendSubmit(ctx context.Context, jobID string, spec *SpecRecord, now int64) error {
	return s.append(ctx, &Record{Type: RecordSubmit, JobID: jobID, TimeUnixNano: now, Spec: spec})
}

// AppendState journals one lifecycle transition. Call BEFORE making the
// transition visible in memory.
func (s *Store) AppendState(ctx context.Context, jobID, state, errMsg string, now int64) error {
	return s.append(ctx, &Record{Type: RecordState, JobID: jobID, TimeUnixNano: now, State: state, Error: errMsg})
}

// AppendCheckpoint journals a best-so-far search snapshot.
func (s *Store) AppendCheckpoint(ctx context.Context, jobID string, ck *CheckpointRecord, now int64) error {
	return s.append(ctx, &Record{Type: RecordCheckpoint, JobID: jobID, TimeUnixNano: now, Checkpoint: ck})
}

// AppendResult journals the job→result-artifact binding. Call after
// PutArtifact succeeds and before the done transition, so a stored result
// always implies a completed job on replay.
func (s *Store) AppendResult(ctx context.Context, jobID, resultHash string, now int64) error {
	return s.append(ctx, &Record{Type: RecordResult, JobID: jobID, TimeUnixNano: now, ResultHash: resultHash})
}

// AppendSessionOpen journals a streaming session's fixed side.
func (s *Store) AppendSessionOpen(ctx context.Context, sessionID string, rec *SessionRecord, now int64) error {
	return s.append(ctx, &Record{Type: RecordSessionOpen, JobID: sessionID, TimeUnixNano: now, Session: rec})
}

// AppendSessionDelta journals one admitted chunk of target traces. Call in
// admission order, before acknowledging the append to the client.
func (s *Store) AppendSessionDelta(ctx context.Context, sessionID string, traces []string, now int64) error {
	return s.append(ctx, &Record{Type: RecordSessionDelta, JobID: sessionID, TimeUnixNano: now, Traces: traces})
}

// AppendSessionClose journals a session's terminal state ("closed" or
// "aborted"); final carries the last published mapping for clean closes.
func (s *Store) AppendSessionClose(ctx context.Context, sessionID, state string, final *SessionFinalRecord, now int64) error {
	return s.append(ctx, &Record{Type: RecordSessionClose, JobID: sessionID, TimeUnixNano: now, State: state, Final: final})
}

// artifactKeyRe guards against path traversal: artifact keys are hex hashes
// (the server's sha256-based cache keys), nothing else reaches the disk.
var artifactKeyRe = regexp.MustCompile(`^[0-9a-f]{16,128}$`)

func (s *Store) artifactPath(key string) (string, error) {
	if !artifactKeyRe.MatchString(key) {
		return "", fmt.Errorf("store: invalid artifact key %q", key)
	}
	return filepath.Join(s.dir, artifactsDir, key), nil
}

// PutArtifact stores data under the given content key (atomic: temp file,
// fsync, rename). If the key already exists the write is skipped — content
// addressing makes artifacts immutable.
func (s *Store) PutArtifact(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	path, err := s.artifactPath(key)
	if err != nil {
		return err
	}
	if _, err := s.fs.Stat(path); err == nil {
		return nil // already stored; content-addressed, so identical
	}
	tmp := tmpName(path)
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: artifact temp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return fmt.Errorf("store: artifact write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return fmt.Errorf("store: artifact fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("store: artifact close: %w", err)
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("store: artifact rename: %w", err)
	}
	if err := s.fs.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("store: artifact dir sync: %w", err)
	}
	s.artifacts.Inc()
	return nil
}

// PutResult stores a result blob keyed by its own sha256 and returns the key.
func (s *Store) PutResult(ctx context.Context, data []byte) (string, error) {
	sum := sha256.Sum256(data)
	key := hex.EncodeToString(sum[:])
	if err := s.PutArtifact(ctx, key, data); err != nil {
		return "", err
	}
	return key, nil
}

// Artifact reads a stored artifact back. A missing artifact returns an error
// satisfying errors.Is(err, fs.ErrNotExist) (via the underlying FS).
func (s *Store) Artifact(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	path, err := s.artifactPath(key)
	if err != nil {
		return nil, err
	}
	return s.fs.ReadFile(path)
}
