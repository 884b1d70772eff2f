package server

import (
	"context"
	"sync"
	"time"

	"eventmatch/internal/event"
	"eventmatch/internal/logio"
	"eventmatch/internal/match"

	"eventmatch"
)

// fixedSpec is the validated side jobs and sessions share: the algorithm,
// the source log, the patterns and the per-search deadline. Sessions run on
// it alone; jobs add the target log and their budgets.
type fixedSpec struct {
	algorithm eventmatch.Algorithm
	algoName  string

	// tenant is the normalized, validated tenant identity the request
	// arrived under. It selects the fair-queue lane, the rate-limit bucket
	// and the telemetry rollup, and it is journaled so a recovered job or
	// session stays with its own tenant.
	tenant string

	l1   *event.Log
	h1   string // content key of the source log artifact
	fmt1 string

	patterns []string
	bound    []*eventmatch.Pattern // patterns bound to l1; nil when the algorithm takes none
	lenient  bool
	timeout  time.Duration
}

// jobSpec is the fully validated, immutable description of one admitted job.
// All request parsing and validation happens at submit time, so a worker can
// run a spec without producing a user-error.
type jobSpec struct {
	fixedSpec

	l2 *event.Log
	h2 string // content hash of the target log, for problem-cache keys

	rep1, rep2 logio.ReadReport

	// fmt2 is the target log's resolved format — together with the content
	// hashes and the lenient flag it makes the spec re-runnable from the
	// artifact store after a crash.
	fmt2 string

	truth      match.Mapping     // nil when no ground truth was submitted
	truthNames map[string]string // the name-level truth as submitted

	// seed, when non-nil, floors the search result — recovery sets it from
	// the job's last persisted checkpoint so a re-run never scores worse than
	// what was already reported as progress.
	seed match.Mapping

	maxGenerated int
	maxFrontier  int
	workers      int
}

// job is one unit of work moving through the lifecycle state machine.
// The zero-valued fields are filled in as the job advances; mu guards
// everything below it.
type job struct {
	id      string
	spec    jobSpec
	created time.Time

	// ctx is canceled by Cancel (client) or by server shutdown force-cancel;
	// the anytime searches then checkpoint their best-so-far mapping.
	ctx    context.Context
	cancel context.CancelFunc

	// persist, when non-nil, journals a lifecycle transition. It is called
	// under mu BEFORE the in-memory state changes — write-ahead ordering: a
	// crash can lose a transition the caller was never shown, never the
	// reverse. Set once at admission, before the job is visible to workers.
	persist func(state JobState, errMsg string)

	mu              sync.Mutex
	state           JobState
	cancelRequested bool
	started         time.Time
	finished        time.Time
	progress        *match.Progress
	result          *JobResult
	errMsg          string
}

// setProgress is the search's progress hook target. It runs synchronously on
// the search goroutine, so it only copies the snapshot under the lock.
func (j *job) setProgress(p match.Progress) {
	j.mu.Lock()
	cp := p
	j.progress = &cp
	j.mu.Unlock()
}

// start transitions queued → running. It returns false when the job was
// canceled while still queued (the worker then skips it: its terminal state
// was already set by requestCancel).
func (j *job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	if j.persist != nil {
		j.persist(StateRunning, "")
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish transitions running → done | failed.
func (j *job) finish(res *JobResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	state, msg := StateDone, ""
	if err != nil {
		state, msg = StateFailed, err.Error()
	}
	if j.persist != nil {
		j.persist(state, msg)
	}
	j.finished = time.Now()
	j.state = state
	j.errMsg = msg
	if err == nil {
		j.result = res
	}
}

// requestCancel delivers a cancellation. A queued job goes terminal
// immediately; a running job keeps running until the search checkpoints
// (its result will carry StopReason "canceled"). Idempotent. Returns false
// only for jobs already terminal.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		if j.persist != nil {
			j.persist(StateCanceled, "")
		}
		j.state = StateCanceled
		j.cancelRequested = true
		j.finished = time.Now()
		j.cancel()
		return true
	case StateRunning:
		j.cancelRequested = true
		j.cancel()
		return true
	default:
		return false
	}
}

// status snapshots the job for the poll endpoint.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobStatus{
		ID:        j.id,
		State:     j.state,
		Algorithm: j.spec.algoName,
		Tenant:    j.spec.tenant,
		Created:   stamp(j.created),
		Started:   stamp(j.started),
		Finished:  stamp(j.finished),
		Error:     j.errMsg,
	}
	if j.cancelRequested && !j.state.Terminal() {
		s.CancelRequested = true
	}
	if j.state == StateRunning && j.progress != nil {
		s.Progress = progressInfo(*j.progress)
	}
	if j.result != nil {
		s.Truncated = j.result.Truncated
		s.StopReason = j.result.StopReason
	}
	return s
}

func (j *job) setID(id string) { j.id = id }

// terminal reports whether the job reached a final state (registry eviction).
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// snapshot returns the terminal state and result for the result endpoint.
func (j *job) snapshot() (JobState, *JobResult, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result, j.errMsg
}
