package match

import (
	"context"
	"time"
)

// Stop reasons recorded in Stats.StopReason when a search truncates. They
// name which budget ran out, so callers (and the eventmatch CLI's exit
// codes) can distinguish a deadline from an explicit cancellation.
const (
	// StopDeadline: Options.MaxDuration elapsed.
	StopDeadline = "deadline"
	// StopCanceled: the caller's context was canceled (or its own deadline
	// passed).
	StopCanceled = "canceled"
	// StopMaxGenerated: Options.MaxGenerated candidate mappings were
	// processed.
	StopMaxGenerated = "max-generated"
	// StopMaxFrontier: the A* open list exceeded Options.MaxFrontier and was
	// beam-pruned, so the search may have discarded the optimal branch.
	StopMaxFrontier = "max-frontier"
)

// checkEvery is the number of candidate evaluations between wall-clock and
// context polls in the search inner loops: frequent enough that a single
// expensive round cannot overshoot MaxDuration badly, rare enough to keep
// the polling itself off the profile.
const checkEvery = 256

// DefaultProgressEvery is the minimum interval between Options.Progress
// calls when Options.ProgressEvery is zero.
const DefaultProgressEvery = 100 * time.Millisecond

// DefaultCheckpointEvery is the minimum interval between Options.Checkpoint
// calls when Options.CheckpointEvery is zero. Checkpoints are much more
// expensive than progress snapshots (each one completes the current partial
// mapping greedily and rescores it), so the default cadence is coarse.
const DefaultCheckpointEvery = 2 * time.Second

// Progress is a point-in-time view of a running search's effort, delivered
// to Options.Progress while the algorithm runs. It carries only cheap
// counters — no mapping — so emitting one costs nothing but a closure call.
type Progress struct {
	Expanded  int           // tree nodes expanded so far
	Generated int           // candidate mappings processed so far
	Elapsed   time.Duration // wall-clock time since the search started
}

// Checkpoint is a periodic best-so-far snapshot of a running search,
// delivered to Options.Checkpoint. Unlike Progress it carries a complete
// injective mapping (the search's current partial mapping completed greedily,
// exactly what the anytime frame would return if the search were cut at this
// instant) plus its pattern normal distance. A snapshot is delivered only
// when it scores strictly above the seed and every earlier checkpoint.
// Callers own the mapping — it is a fresh copy, never aliased by the search.
//
// Checkpoints are the durability half of the anytime contract: a service
// that persists the latest Checkpoint can re-seed an interrupted search via
// Options.Seed and resume with at least the checkpointed score.
type Checkpoint struct {
	Mapping   Mapping       // complete best-so-far mapping (caller-owned copy)
	Score     float64       // pattern normal distance of Mapping
	Expanded  int           // tree nodes expanded so far
	Generated int           // candidate mappings processed so far
	Elapsed   time.Duration // wall-clock time since the search started
}

// stopper polls a search's cancellation signals — caller context, wall-clock
// deadline, and the generated-candidates budget — and remembers the first
// reason it fired, so later phases of a multi-phase algorithm see a stable
// verdict. It also drives the Options.Progress hook: snapshots are emitted
// from the same poll sites, rate-limited to one per ProgressEvery.
type stopper struct {
	ctx    context.Context
	start  time.Time
	max    time.Duration
	maxGen int
	n      int    // evaluations since the last time/context poll
	reason string // first stop reason observed ("" while running)

	progress  func(Progress) // nil: no progress reporting
	progEvery time.Duration
	lastProg  time.Time

	// checkpoint emission: the hook comes from Options.Checkpoint, the
	// partial closure is installed by each search (it returns the search's
	// current partial mapping) and complete by the anytime frame (it turns a
	// partial mapping into a scored complete one). All run synchronously on
	// the search goroutine, so they see a quiescent search state.
	checkpoint func(Checkpoint)
	partial    func() Mapping // nil until the search installs one
	complete   func(Mapping) (Mapping, float64)
	ckptEvery  time.Duration
	lastCkpt   time.Time

	// The incumbent: the best complete mapping the search has vouched for
	// outside its own result — a valid Options.Seed, then each emitted
	// checkpoint. Greedy completions of successive partial states
	// fluctuate, so a snapshot is emitted only when it beats the incumbent
	// (the persisted stream only improves), and the anytime frame returns
	// the incumbent when the search's result scores below it: a caller
	// never sees a score the result then falls below.
	best      Mapping
	bestScore float64
}

func newStopper(ctx context.Context, opts Options, start time.Time) *stopper {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &stopper{ctx: ctx, start: start, max: opts.MaxDuration, maxGen: opts.MaxGenerated}
	if opts.Progress != nil {
		s.progress = opts.Progress
		s.progEvery = opts.ProgressEvery
		if s.progEvery <= 0 {
			s.progEvery = DefaultProgressEvery
		}
		s.lastProg = start
	}
	if opts.Checkpoint != nil {
		s.checkpoint = opts.Checkpoint
		s.ckptEvery = opts.CheckpointEvery
		if s.ckptEvery <= 0 {
			s.ckptEvery = DefaultCheckpointEvery
		}
		s.lastCkpt = start
	}
	return s
}

// onSnapshot installs the closure that returns the search's current
// partial mapping, enabling checkpoint emission from the poll sites.
// Searches re-install it when they change phase (e.g. HeuristicAdvanced's
// augmentation → repair transition).
func (s *stopper) onSnapshot(partial func() Mapping) {
	s.partial = partial
}

// now reports whether the search must stop, polling every signal.
func (s *stopper) now(st *Stats) (string, bool) {
	if s.reason != "" {
		return s.reason, true
	}
	if s.progress != nil || (s.checkpoint != nil && s.partial != nil) {
		t := time.Now()
		if s.progress != nil && t.Sub(s.lastProg) >= s.progEvery {
			s.lastProg = t
			s.progress(Progress{Expanded: st.Expanded, Generated: st.Generated, Elapsed: t.Sub(s.start)})
		}
		if s.checkpoint != nil && s.partial != nil && t.Sub(s.lastCkpt) >= s.ckptEvery {
			s.lastCkpt = t
			if m, score := s.complete(s.partial()); s.best == nil || score > s.bestScore {
				s.best, s.bestScore = m.Clone(), score
				s.checkpoint(Checkpoint{
					Mapping:   m,
					Score:     score,
					Expanded:  st.Expanded,
					Generated: st.Generated,
					Elapsed:   t.Sub(s.start),
				})
			}
		}
	}
	switch {
	case s.maxGen > 0 && st.Generated >= s.maxGen:
		s.reason = StopMaxGenerated
	case s.ctx.Err() != nil:
		s.reason = StopCanceled
	case s.max > 0 && time.Since(s.start) > s.max:
		s.reason = StopDeadline
	default:
		return "", false
	}
	return s.reason, true
}

// every is now at a 1/checkEvery cadence for hot inner loops; the cheap
// generated-candidates budget is still enforced on every call.
func (s *stopper) every(st *Stats) (string, bool) {
	if s.reason != "" {
		return s.reason, true
	}
	if s.maxGen > 0 && st.Generated >= s.maxGen {
		s.reason = StopMaxGenerated
		return s.reason, true
	}
	s.n++
	if s.n < checkEvery {
		return "", false
	}
	s.n = 0
	return s.now(st)
}

// signaled reports whether the caller's context is done or MaxDuration has
// elapsed, without recording a reason or firing any hook. It reads only
// fields fixed at construction, so concurrent workers may call it; the
// search goroutine then records the verdict with now.
func (s *stopper) signaled() bool {
	return s.ctx.Err() != nil || (s.max > 0 && time.Since(s.start) > s.max)
}

// halted reports whether a previous poll already fired, without polling
// again. Used after the work is done to decide whether the result must be
// marked truncated: a deadline that expires only after the last piece of
// work finished does not make the result partial.
func (s *stopper) halted() (string, bool) { return s.reason, s.reason != "" }
