package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"eventmatch/internal/match"
	"eventmatch/internal/server/store"
	"eventmatch/internal/server/tenant"
)

// This file is the server side of the durability layer: translating the job
// lifecycle into journal records (write-ahead), shipping uploaded logs and
// results into the artifact store, and rebuilding jobs from a replayed
// journal on boot.
//
// Persistence failures are counted (server.persist_errors) but never take
// the service down: a daemon with a sick disk degrades to the in-memory
// behavior instead of refusing work. The one place durability gates
// correctness — the crash-recovery e2e — exercises the happy path.

// persistLogArtifact stores one uploaded log under its content key. No-op
// without a store; idempotent by content addressing.
func (s *Server) persistLogArtifact(key string, data []byte) {
	if s.store == nil {
		return
	}
	s.persisted(s.store.PutArtifact(s.persistCtx, key, data))
}

// persisted counts a failed durability write; the in-memory lifecycle goes
// on regardless.
func (s *Server) persisted(err error) {
	if err != nil {
		s.persistErrs.Inc()
	}
}

// persistSubmit journals a freshly admitted job's spec. The log artifacts
// were already stored by ingest, so the record only carries their keys.
func (s *Server) persistSubmit(ctx context.Context, j *job) {
	if s.store == nil {
		return
	}
	spec := j.spec
	rec := &store.SpecRecord{
		Algorithm:       spec.algoName,
		Tenant:          spec.tenant,
		Log1:            store.LogRef{Key: spec.h1, Format: spec.fmt1},
		Log2:            store.LogRef{Key: spec.h2, Format: spec.fmt2},
		Patterns:        spec.patterns,
		Truth:           spec.truthNames,
		TimeoutMS:       spec.timeout.Milliseconds(),
		MaxGenerated:    spec.maxGenerated,
		MaxFrontier:     spec.maxFrontier,
		Workers:         spec.workers,
		Lenient:         spec.lenient,
		CreatedUnixNano: j.created.UnixNano(),
	}
	s.persisted(s.store.AppendSubmit(ctx, j.id, rec, time.Now().UnixNano()))
}

// statePersister returns the job's persist hook: it journals one lifecycle
// transition and is called under the job mutex before the in-memory change.
// It uses the detached persist context so the shutdown force-cancel cannot
// abort the final done/failed records. Nil without a store.
func (s *Server) statePersister(id string) func(state JobState, errMsg string) {
	if s.store == nil {
		return nil
	}
	return func(state JobState, errMsg string) {
		s.persisted(s.store.AppendState(s.persistCtx, id, string(state), errMsg, time.Now().UnixNano()))
	}
}

// persistResult stores a done job's result blob and journals the binding.
// The result record lands BEFORE the done transition (runJob calls this
// ahead of j.finish), so on replay a stored result proves completion.
func (s *Server) persistResult(j *job, res *JobResult) {
	if s.store == nil {
		return
	}
	data, err := json.Marshal(res)
	if err != nil {
		s.persistErrs.Inc()
		return
	}
	hash, err := s.store.PutResult(s.persistCtx, data)
	if err != nil {
		s.persistErrs.Inc()
		return
	}
	s.persisted(s.store.AppendResult(s.persistCtx, j.id, hash, time.Now().UnixNano()))
}

// persistSessionOpen journals a freshly opened session's fixed side. The
// source-log artifact was already stored by ingest.
func (s *Server) persistSessionOpen(ctx context.Context, ss *streamSession) {
	if s.store == nil {
		return
	}
	rec := &store.SessionRecord{
		Algorithm:       ss.spec.algoName,
		Tenant:          ss.spec.tenant,
		Log1:            store.LogRef{Key: ss.spec.h1, Format: ss.spec.fmt1},
		Patterns:        ss.spec.patterns,
		TimeoutMS:       ss.spec.timeout.Milliseconds(),
		Lenient:         ss.spec.lenient,
		CreatedUnixNano: ss.created.UnixNano(),
	}
	s.persisted(s.store.AppendSessionOpen(ctx, ss.id, rec, time.Now().UnixNano()))
}

// persistSessionDelta journals one admitted chunk. Called under the session
// mutex, between the fair-queue push and the acknowledgment — the journal's
// delta order is the admission order, which is the apply order.
func (s *Server) persistSessionDelta(ss *streamSession, traces [][]string) {
	if s.store == nil {
		return
	}
	s.persisted(s.store.AppendSessionDelta(s.persistCtx, ss.id, sessionTraceLines(traces), time.Now().UnixNano()))
}

// persistSessionClose journals a session's terminal state; clean closes carry
// the final published mapping so restarts serve it without recomputation.
func (s *Server) persistSessionClose(ss *streamSession, state string) {
	if s.store == nil {
		return
	}
	var final *store.SessionFinalRecord
	if state == string(SessionClosed) && ss.last != nil {
		final = &store.SessionFinalRecord{
			Revision: ss.last.Revision,
			Pairs:    ss.last.Pairs,
			Score:    ss.last.Score,
		}
	}
	s.persisted(s.store.AppendSessionClose(s.persistCtx, ss.id, state, final, time.Now().UnixNano()))
}

// ckptMsg is one checkpoint on its way to the journal.
type ckptMsg struct {
	jobID string
	rec   *store.CheckpointRecord
}

// checkpointHook adapts the search's checkpoint callback to the async
// journal writer. The hook runs synchronously on the search goroutine, so it
// must not block: a full writer queue drops the snapshot (counted) — the
// next one is at most a checkpoint interval away.
func (s *Server) checkpointHook(j *job) func(match.Checkpoint) {
	if s.store == nil {
		return nil
	}
	spec := j.spec
	return func(ck match.Checkpoint) {
		msg := ckptMsg{
			jobID: j.id,
			rec: &store.CheckpointRecord{
				Pairs:     namePairs(spec.l1, spec.l2, ck.Mapping),
				Score:     ck.Score,
				Expanded:  ck.Expanded,
				Generated: ck.Generated,
				ElapsedMS: ck.Elapsed.Milliseconds(),
			},
		}
		select {
		case s.ckptCh <- msg:
		default:
			s.ckptDrops.Inc()
		}
	}
}

// checkpointWriter drains ckptCh onto the journal. It exits when Shutdown
// closes the channel (after all workers — the only senders — have exited).
func (s *Server) checkpointWriter() {
	defer close(s.ckptdone)
	for msg := range s.ckptCh {
		s.persisted(s.store.AppendCheckpoint(s.persistCtx, msg.jobID, msg.rec, time.Now().UnixNano()))
	}
}

// RecoverySummary reports what Recover reconstructed from the journal.
type RecoverySummary struct {
	// Jobs is the total number of journaled jobs restored into the job store.
	Jobs int
	// Results is how many completed jobs came back with their result served
	// from the artifact store.
	Results int
	// Requeued is how many interrupted (queued or running) jobs were
	// re-enqueued for execution, re-seeded from their last checkpoint.
	Requeued int
	// Failed is how many jobs could not be reconstructed (lost artifacts,
	// spec no longer valid) and were marked failed.
	Failed int
	// Sessions is the total number of journaled streaming sessions restored.
	Sessions int
	// SessionsResumed is how many of them came back live: their journaled
	// deltas were replayed into a fresh matching core, which converges to the
	// same mapping the pre-crash session would have published.
	SessionsResumed int
}

// Recover rebuilds the job store from a journal replay. Completed jobs are
// restored with their results loaded from the artifact store; interrupted
// jobs are re-enqueued (their searches re-seeded from the last persisted
// checkpoint, so the re-run can never score below what was already
// journaled); unrecoverable jobs are marked failed, durably. Call once,
// after New and before serving traffic.
func (s *Server) Recover(rec *store.Recovery) RecoverySummary {
	var sum RecoverySummary
	if s.store == nil || rec == nil {
		return sum
	}
	s.jobs.bumpSeq(rec.MaxJobSeq)
	var requeue []*job
	for _, rj := range rec.Jobs {
		j, enqueue := s.recoverJob(rj, &sum)
		s.jobs.addRecovered(j, rj.ID)
		j.persist = s.statePersister(rj.ID)
		if enqueue {
			requeue = append(requeue, j)
		}
	}
	sum.Jobs = len(rec.Jobs)
	s.sessions.bumpSeq(rec.MaxSessionSeq)
	for _, rs := range rec.Sessions {
		s.recoverSession(rs, &sum)
	}
	sum.Sessions = len(rec.Sessions)
	if len(requeue) > 0 {
		go s.feedRecovered(requeue)
	}
	return sum
}

// recoverSession restores one replayed session. Terminal sessions come back
// as status-only records (the clean-close final mapping is served from the
// journal); open sessions are rebuilt live — the source log from the artifact
// store, every journaled delta replayed into a fresh core in admission order,
// which coalesces them into one re-search and converges to the same mapping
// as the pre-crash session.
func (s *Server) recoverSession(rs *store.RecoveredSession, sum *RecoverySummary) {
	created := createdAt(rs.Spec.CreatedUnixNano)
	var replayed [][]string
	for _, chunk := range rs.Deltas {
		for _, line := range chunk {
			replayed = append(replayed, strings.Fields(line))
		}
	}
	total := len(replayed)

	// Terminal and unrecoverable sessions come back status-only, without a core.
	restore := func(state SessionState, last *SessionUpdate, errMsg string) {
		ss := newStreamSession(fixedSpec{algoName: rs.Spec.Algorithm, tenant: tenant.Normalize(rs.Spec.Tenant)},
			created, state, total)
		ss.last, ss.errMsg = last, errMsg
		s.sessions.addRecovered(ss, rs.ID)
	}
	if rs.Terminal() {
		var last *SessionUpdate
		if rs.Final != nil {
			last = &SessionUpdate{
				Revision: rs.Final.Revision,
				Pairs:    rs.Final.Pairs,
				Score:    rs.Final.Score,
				Final:    true,
			}
		}
		restore(SessionState(rs.State), last, "")
		return
	}

	failTerminal := func(msg string) {
		restore(SessionAborted, nil, msg)
		// The verdict must survive the next restart too.
		s.persisted(s.store.AppendSessionClose(s.persistCtx, rs.ID, string(SessionAborted), nil, time.Now().UnixNano()))
	}

	log1, err := s.storedLog("log1", rs.Spec.Log1)
	if err != nil {
		failTerminal(fmt.Sprintf("recovery: %v", err))
		return
	}
	spec, err := s.buildSessionSpec(OpenSessionRequest{
		Log1:      log1,
		Patterns:  rs.Spec.Patterns,
		Algorithm: rs.Spec.Algorithm,
		TimeoutMS: rs.Spec.TimeoutMS,
		Lenient:   rs.Spec.Lenient,
	})
	if err != nil {
		failTerminal(fmt.Sprintf("recovery: %v", err))
		return
	}
	spec.tenant = tenant.Normalize(rs.Spec.Tenant)

	// Size the core inbox for the whole replay so a single Append call feeds
	// every delta; the writer coalesces them into one converging re-search.
	maxPending := s.cfg.SessionBacklog
	if total > maxPending {
		maxPending = total
	}
	ss, err := s.startSession(spec, created, total, maxPending)
	if err != nil {
		failTerminal(fmt.Sprintf("recovery: %v", err))
		return
	}
	if len(replayed) > 0 {
		if _, err := ss.core.Append(replayed...); err != nil {
			ss.core.Abort()
			failTerminal(fmt.Sprintf("recovery: replaying deltas: %v", err))
			return
		}
	}
	s.sessions.addRecovered(ss, rs.ID)
	sum.SessionsResumed++
}

// recoverJob turns one replayed job into a live *job, reporting whether it
// still needs to run. Terminal jobs are reconstructed in place; interrupted
// ones get their spec rebuilt from the stored artifacts.
func (s *Server) recoverJob(rj *store.RecoveredJob, sum *RecoverySummary) (j *job, enqueue bool) {
	j = s.newJob(jobSpec{fixedSpec: fixedSpec{
		algoName: rj.Spec.Algorithm,
		tenant:   tenant.Normalize(rj.Spec.Tenant),
	}}, createdAt(rj.Spec.CreatedUnixNano))

	settle := func(state JobState, res *JobResult, msg string) (*job, bool) {
		j.cancel()
		j.state, j.result, j.errMsg = state, res, msg
		j.finished = time.Now()
		return j, false
	}
	fail := func(msg string) (*job, bool) {
		sum.Failed++
		// The in-memory verdict must survive the next restart too.
		s.persisted(s.store.AppendState(s.persistCtx, rj.ID, string(StateFailed), msg, time.Now().UnixNano()))
		return settle(StateFailed, nil, msg)
	}

	// A stored result proves completion no matter what the last state record
	// said (the result record is ordered before the done transition).
	if rj.ResultHash != "" {
		data, err := s.store.Artifact(s.persistCtx, rj.ResultHash)
		if err != nil {
			return fail(fmt.Sprintf("recovery: result artifact %s lost: %v", rj.ResultHash, err))
		}
		var res JobResult
		if err := json.Unmarshal(data, &res); err != nil {
			return fail(fmt.Sprintf("recovery: result artifact %s unreadable: %v", rj.ResultHash, err))
		}
		sum.Results++
		return settle(StateDone, &res, "")
	}

	switch JobState(rj.State) {
	case StateFailed, StateCanceled:
		return settle(JobState(rj.State), nil, rj.Error)
	case StateDone:
		// Done without a result record should be impossible under the
		// write-ahead ordering; treat a journal that claims it as lossy.
		return fail("recovery: job marked done but no result was journaled")
	}

	// Interrupted (queued or running): rebuild the spec from artifacts and
	// run it again, seeded by the best journaled checkpoint.
	spec, err := s.rebuildSpec(rj)
	if err != nil {
		return fail(fmt.Sprintf("recovery: %v", err))
	}
	j.spec = spec
	sum.Requeued++
	return j, true
}

// rebuildSpec reconstructs a runnable jobSpec from a journaled spec record:
// the raw logs come back from the artifact store and go through the same
// validation path as a fresh submission, and the checkpoint (if any) is
// resolved to an id-level seed mapping.
func (s *Server) rebuildSpec(rj *store.RecoveredJob) (jobSpec, error) {
	log1, err := s.storedLog("log1", rj.Spec.Log1)
	if err != nil {
		return jobSpec{}, err
	}
	log2, err := s.storedLog("log2", rj.Spec.Log2)
	if err != nil {
		return jobSpec{}, err
	}
	spec, err := s.buildSpec(SubmitRequest{
		Log1:         log1,
		Log2:         log2,
		Patterns:     rj.Spec.Patterns,
		Truth:        rj.Spec.Truth,
		Algorithm:    rj.Spec.Algorithm,
		TimeoutMS:    rj.Spec.TimeoutMS,
		MaxGenerated: rj.Spec.MaxGenerated,
		MaxFrontier:  rj.Spec.MaxFrontier,
		Workers:      rj.Spec.Workers,
		Lenient:      rj.Spec.Lenient,
	})
	if err != nil {
		return jobSpec{}, err
	}
	// The tenant is transport-level identity, not part of the submission
	// body, so buildSpec cannot restore it — re-attach it from the record
	// (pre-tenancy journals recover as the default tenant).
	spec.tenant = tenant.Normalize(rj.Spec.Tenant)
	if rj.Checkpoint != nil {
		// Unlike a ground truth, a seed is best-effort: names that no longer
		// resolve are skipped, and a seed that comes out non-injective is
		// simply ignored by the search (match.Options.Seed validates it).
		spec.seed, _ = resolvePairs(rj.Checkpoint.Pairs, spec.l1, spec.l2)
	}
	return spec, nil
}

// createdAt restores a journaled creation time; records written without one
// count as created now.
func createdAt(unixNano int64) time.Time {
	if unixNano > 0 {
		return time.Unix(0, unixNano)
	}
	return time.Now()
}

// storedLog reads a journaled log reference back from the artifact store.
func (s *Server) storedLog(name string, ref store.LogRef) (LogPayload, error) {
	raw, err := s.store.Artifact(s.persistCtx, ref.Key)
	if err != nil {
		return LogPayload{}, fmt.Errorf("%s artifact %s lost: %w", name, ref.Key, err)
	}
	return LogPayload{Format: ref.Format, Data: string(raw)}, nil
}

// feedRecovered re-enqueues recovered jobs. jobQueue.push is non-blocking, so
// a recovery larger than the queue feeds in as workers free slots; if the
// server starts draining first, the leftovers stay journaled as queued and
// simply recover again on the next boot.
func (s *Server) feedRecovered(jobs []*job) {
	for _, j := range jobs {
		for {
			err := s.jobQueue.push(j.spec.tenant, j)
			if err == nil {
				s.submitted.Inc()
				s.tenantStats(j.spec.tenant).submitted.Inc()
				break
			}
			if err == errDraining {
				return
			}
			select {
			case <-s.baseCtx.Done():
				return
			case <-time.After(50 * time.Millisecond):
			}
		}
	}
}
