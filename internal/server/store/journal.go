package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// Journal record format: one record per line,
//
//	<crc32-ieee of the JSON body, 8 lowercase hex digits> <JSON body>\n
//
// The CRC detects torn writes that happen to end on a line boundary; a
// missing trailing newline detects the common case of a write cut mid-line.
// Records are self-describing JSON so unknown future record types replay as
// "skip and count" instead of poisoning the whole journal.

// Record types. Replay skips (and counts) any type it does not recognize.
const (
	// RecordSubmit declares a job and its full re-runnable spec. Logically
	// the queued→existing transition of the WAL.
	RecordSubmit = "submit"
	// RecordState is one lifecycle transition (queued/running/done/failed/
	// canceled), written before the in-memory transition becomes visible.
	RecordState = "state"
	// RecordCheckpoint is a periodic best-so-far search snapshot; the latest
	// (highest-scoring) one re-seeds the job's search after a crash.
	RecordCheckpoint = "checkpoint"
	// RecordResult binds a job to its result artifact (by content hash).
	// Written before the done transition, so "result present" implies the
	// job completed even if the final state record was lost.
	RecordResult = "result"

	// RecordSessionOpen declares a streaming session and its fixed side: the
	// source log (as an artifact reference), patterns, algorithm, tenant.
	RecordSessionOpen = "session_open"
	// RecordSessionDelta is one admitted chunk of target traces, journaled in
	// admission order — replaying every delta of an open session reconstructs
	// its exact target log, and a re-search over it converges to the same
	// mapping the live session would have published.
	RecordSessionDelta = "session_delta"
	// RecordSessionClose marks a session terminal ("closed" or "aborted"); a
	// clean close carries the final published mapping so restarts serve it
	// without recomputation.
	RecordSessionClose = "session_close"
)

// Record is the union of all journal record bodies.
type Record struct {
	Type  string `json:"type"`
	JobID string `json:"job"`
	// TimeUnixNano stamps the append (for recovered job timestamps).
	TimeUnixNano int64 `json:"t,omitempty"`

	// RecordSubmit payload.
	Spec *SpecRecord `json:"spec,omitempty"`

	// RecordState payload.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`

	// RecordCheckpoint payload.
	Checkpoint *CheckpointRecord `json:"checkpoint,omitempty"`

	// RecordResult payload.
	ResultHash string `json:"result_hash,omitempty"`

	// RecordSessionOpen payload.
	Session *SessionRecord `json:"session,omitempty"`

	// RecordSessionDelta payload: one admitted chunk, each trace a
	// space-separated event-name line (the trace-lines log format).
	Traces []string `json:"traces,omitempty"`

	// RecordSessionClose payload: the final published state of a cleanly
	// closed session (nil for aborts). The terminal state itself rides the
	// State field shared with RecordState.
	Final *SessionFinalRecord `json:"final,omitempty"`
}

// SessionRecord is the durable form of a streaming session's fixed side. The
// source log lives in the artifact store; everything else is inline.
type SessionRecord struct {
	Algorithm string `json:"algorithm"`
	Log1      LogRef `json:"log1"`
	Tenant    string `json:"tenant,omitempty"`

	Patterns []string `json:"patterns,omitempty"`

	// TimeoutMS bounds each incremental re-search, not the session.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	Lenient   bool  `json:"lenient,omitempty"`

	CreatedUnixNano int64 `json:"created,omitempty"`
}

// SessionFinalRecord is a closed session's last published mapping.
type SessionFinalRecord struct {
	Revision int               `json:"revision"`
	Pairs    map[string]string `json:"pairs"`
	Score    float64           `json:"score"`
}

// SpecRecord is the durable, re-runnable form of a job submission. Log
// payloads live in the artifact store (content-addressed by the same keys
// the server's parse caches use); everything else is inline.
type SpecRecord struct {
	Algorithm string `json:"algorithm"`
	Log1      LogRef `json:"log1"`
	Log2      LogRef `json:"log2"`

	// Tenant is the tenant identity the job was submitted under; recovery
	// re-enqueues the job into this tenant's queue. Empty (pre-tenancy
	// journals) recovers as the default tenant.
	Tenant string `json:"tenant,omitempty"`

	Patterns []string          `json:"patterns,omitempty"`
	Truth    map[string]string `json:"truth,omitempty"`

	TimeoutMS    int64 `json:"timeout_ms,omitempty"`
	MaxGenerated int   `json:"max_generated,omitempty"`
	MaxFrontier  int   `json:"max_frontier,omitempty"`
	Workers      int   `json:"workers,omitempty"`
	Lenient      bool  `json:"lenient,omitempty"`

	CreatedUnixNano int64 `json:"created,omitempty"`
}

// LogRef points at one uploaded log's artifact.
type LogRef struct {
	// Key is the content-addressed artifact key (the server's log cache key:
	// sha256 over format, leniency and raw bytes).
	Key string `json:"key"`
	// Format is the resolved log format ("log", "csv", "xes").
	Format string `json:"format"`
}

// CheckpointRecord is a persisted anytime checkpoint: the best-so-far
// complete mapping at name level (names survive re-parsing trivially) plus
// its score and effort counters.
type CheckpointRecord struct {
	Pairs     map[string]string `json:"pairs"`
	Score     float64           `json:"score"`
	Expanded  int               `json:"expanded,omitempty"`
	Generated int               `json:"generated,omitempty"`
	ElapsedMS int64             `json:"elapsed_ms,omitempty"`
}

// encodeRecord renders one journal line.
func encodeRecord(r *Record) ([]byte, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("store: encoding %s record: %w", r.Type, err)
	}
	line := make([]byte, 0, len(body)+10)
	line = append(line, fmt.Sprintf("%08x", crc32.ChecksumIEEE(body))...)
	line = append(line, ' ')
	line = append(line, body...)
	line = append(line, '\n')
	return line, nil
}

// decodeLine parses one journal line back into a Record. The returned type
// string is the raw record type even when it is unknown to this build (the
// Record still carries the common fields).
func decodeLine(line []byte) (*Record, error) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("store: malformed journal line (%d bytes)", len(line))
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("store: malformed journal CRC: %w", err)
	}
	body := line[9:]
	if got := crc32.ChecksumIEEE(body); got != uint32(want) {
		return nil, fmt.Errorf("store: journal CRC mismatch (want %08x, got %08x)", want, got)
	}
	var r Record
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("store: journal JSON: %w", err)
	}
	return &r, nil
}

// Recovery is what a journal replay reconstructs: every known job in submit
// order with its last persisted state, plus replay accounting.
type Recovery struct {
	// Jobs holds every journaled job in submission order.
	Jobs []*RecoveredJob
	// Sessions holds every journaled streaming session in open order.
	Sessions []*RecoveredSession
	// Records is the number of well-formed records replayed.
	Records int
	// Torn counts trailing records dropped as torn/partial (the normal
	// kill-mid-append signature; at most 1 in practice).
	Torn int
	// Skipped counts well-formed records that were ignored: unknown record
	// types, records for unknown jobs, duplicate submits.
	Skipped int
	// MaxJobSeq is the highest numeric suffix seen in "j<N>" job ids, so the
	// server can continue its id sequence without collisions.
	MaxJobSeq int
	// MaxSessionSeq is the same for "s<N>" session ids.
	MaxSessionSeq int

	// goodPrefix is the byte length of the well-formed journal prefix — the
	// offset at which replay stopped. Open truncates the journal here before
	// reopening it for append, so new records never concatenate onto torn
	// bytes (which would corrupt the first post-crash record and hide every
	// later one from the NEXT replay).
	goodPrefix int
}

// RecoveredJob is one job's replayed end state.
type RecoveredJob struct {
	ID   string
	Spec SpecRecord
	// State is the last persisted lifecycle state ("queued" right after
	// submit). A non-empty ResultHash overrides it: result-before-done
	// ordering means a stored result proves completion even when the final
	// state record was lost to the crash.
	State string
	Error string
	// Checkpoint is the best persisted checkpoint (highest score), nil if
	// none was written.
	Checkpoint *CheckpointRecord
	ResultHash string
}

// RecoveredSession is one streaming session's replayed end state.
type RecoveredSession struct {
	ID   string
	Spec SessionRecord
	// Deltas are every admitted trace chunk in admission order; concatenated
	// they are the session's exact target log.
	Deltas [][]string
	// State is "open" unless a close record was replayed ("closed" or
	// "aborted").
	State string
	// Final is the last published mapping of a cleanly closed session.
	Final *SessionFinalRecord
}

// Terminal reports whether the replayed session needs no live core: it was
// closed or aborted before the crash.
func (s *RecoveredSession) Terminal() bool {
	return s.State == "closed" || s.State == "aborted"
}

// replay folds a journal's bytes into a Recovery. It tolerates a torn tail:
// the last record may be cut mid-line (no trailing newline) or corrupted
// (CRC/JSON failure) — replay stops there and keeps everything before it.
// A malformed record that is NOT the last line is treated the same way
// (stop, keep the prefix): after an unparseable record the byte stream has
// lost its framing, so everything beyond it is suspect.
func replay(data []byte) *Recovery {
	rec := &Recovery{goodPrefix: len(data)}
	byID := map[string]*RecoveredJob{}
	sessByID := map[string]*RecoveredSession{}
	lines := bytes.Split(data, []byte("\n"))
	off := 0
	for i, line := range lines {
		if len(line) == 0 {
			off += 1 // the terminating newline of the previous record
			continue
		}
		r, err := decodeLine(line)
		if err != nil || i == len(lines)-1 {
			// Undecodable record, or a final line missing its terminating
			// newline (a write cut mid-append): both torn-tail signatures.
			// Stop here and keep the well-formed prefix.
			rec.Torn++
			rec.goodPrefix = off
			break
		}
		off += len(line) + 1
		rec.Records++
		if seq, ok := strings.CutPrefix(r.JobID, "j"); ok {
			if n, err := strconv.Atoi(seq); err == nil && n > rec.MaxJobSeq {
				rec.MaxJobSeq = n
			}
		}
		if seq, ok := strings.CutPrefix(r.JobID, "s"); ok {
			if n, err := strconv.Atoi(seq); err == nil && n > rec.MaxSessionSeq {
				rec.MaxSessionSeq = n
			}
		}
		switch r.Type {
		case RecordSubmit:
			if r.Spec == nil || byID[r.JobID] != nil {
				rec.Skipped++ // malformed or duplicate submit
				continue
			}
			j := &RecoveredJob{ID: r.JobID, Spec: *r.Spec, State: "queued"}
			byID[r.JobID] = j
			rec.Jobs = append(rec.Jobs, j)
		case RecordState:
			j := byID[r.JobID]
			if j == nil || r.State == "" {
				rec.Skipped++
				continue
			}
			// Duplicate transitions (e.g. a second "running" after a crash
			// re-enqueued the job) are idempotent by construction: the last
			// record wins.
			j.State = r.State
			j.Error = r.Error
		case RecordCheckpoint:
			j := byID[r.JobID]
			if j == nil || r.Checkpoint == nil {
				rec.Skipped++
				continue
			}
			if j.Checkpoint == nil || r.Checkpoint.Score >= j.Checkpoint.Score {
				j.Checkpoint = r.Checkpoint
			}
		case RecordResult:
			j := byID[r.JobID]
			if j == nil || r.ResultHash == "" {
				rec.Skipped++
				continue
			}
			j.ResultHash = r.ResultHash
		case RecordSessionOpen:
			if r.Session == nil || sessByID[r.JobID] != nil {
				rec.Skipped++ // malformed or duplicate open
				continue
			}
			sess := &RecoveredSession{ID: r.JobID, Spec: *r.Session, State: "open"}
			sessByID[r.JobID] = sess
			rec.Sessions = append(rec.Sessions, sess)
		case RecordSessionDelta:
			sess := sessByID[r.JobID]
			if sess == nil || len(r.Traces) == 0 {
				rec.Skipped++
				continue
			}
			sess.Deltas = append(sess.Deltas, append([]string(nil), r.Traces...))
		case RecordSessionClose:
			sess := sessByID[r.JobID]
			if sess == nil || (r.State != "closed" && r.State != "aborted") {
				rec.Skipped++
				continue
			}
			sess.State = r.State
			sess.Final = r.Final
		default:
			rec.Skipped++ // unknown record type: forward compatibility
		}
	}
	return rec
}
