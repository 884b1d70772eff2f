package stream

import (
	"context"
	"errors"
	"sync"

	"eventmatch/internal/event"
	"eventmatch/internal/match"
	"eventmatch/internal/pattern"
)

// Session errors.
var (
	// ErrSessionClosed rejects appends after Close or Abort.
	ErrSessionClosed = errors.New("stream: session closed")
	// ErrBacklogFull rejects appends while the pending inbox is at capacity;
	// the caller should retry once the writer drains (backpressure, not loss).
	ErrBacklogFull = errors.New("stream: session backlog full")
)

// SessionConfig configures NewSession. L1, Patterns and Mode fix the source
// side of the matching problem for the session's lifetime; target traces
// arrive through Append.
type SessionConfig struct {
	// L1 is the source log (fixed at open).
	L1 *event.Log
	// L2 is the initial target log; nil starts from an empty log, the
	// canonical streaming state. Retained: do not mutate it after open.
	L2 *event.Log
	// Patterns are the user-declared complex patterns over L1.
	Patterns []*pattern.Pattern
	// Mode selects the problem's pattern set (match.ModePattern etc.).
	Mode match.Mode
	// Options is the per-re-search option template. Seed is overwritten each
	// round with the previously published mapping; everything else (bounds,
	// budgets, workers, telemetry, progress hooks) passes through.
	Options match.Options
	// Search runs one re-search; nil selects exact A* (AStarContext).
	Search func(ctx context.Context, pr *match.Problem, opts match.Options) (match.Mapping, match.Stats, error)
	// MaxPending bounds the inbox of traces accepted but not yet folded in;
	// Append fails with ErrBacklogFull beyond it. Defaults to 256.
	MaxPending int
	// OnUpdate, when non-nil, observes every published update, called
	// synchronously from the writer goroutine (so it may safely read the
	// session's logs and alphabets). It must not call back into the session
	// and must not retain or mutate the update's mapping.
	OnUpdate func(Update)
}

// Update is one published matching state: the best mapping over the first
// Revision target traces.
type Update struct {
	// Revision is the number of target traces the mapping reflects.
	Revision int
	// Mapping is the published mapping (do not mutate).
	Mapping match.Mapping
	// Score is the mapping's pattern normal distance.
	Score float64
	// Stats reports the effort of the re-search that produced this update.
	Stats match.Stats
	// Final marks the drain marker emitted once after a clean Close: it
	// re-publishes the last state with no further updates to follow.
	Final bool
}

// Session is the single-writer incremental matching core: appended traces
// are folded into a StreamProblem and re-searched, seeded with the previous
// published mapping, by one writer goroutine (apply-delta → re-search →
// publish). Append never blocks on a search; it enqueues into a bounded
// inbox and cancels any in-flight search so the fresh delta reaches the next
// publish promptly (the anytime searches return their best-so-far mapping on
// cancellation — liveness without wasted work). Close drains the inbox and
// emits a final marker; Abort cancels everything without draining.
//
// All exported methods are safe for concurrent use.
type Session struct {
	cfg SessionConfig
	sp  *match.StreamProblem

	mu           sync.Mutex
	cond         *sync.Cond // signals the writer: pending work, close, abort
	pending      [][]string
	accepted     int // traces accepted (initial L2 traces + appends)
	closed       bool
	aborted      bool
	searchCancel context.CancelFunc // cancels the in-flight re-search
	cur          Update
	hasCur       bool

	done chan struct{} // closed when the writer exits
}

// NewSession builds the matching problem and starts the writer goroutine.
func NewSession(cfg SessionConfig) (*Session, error) {
	l2 := cfg.L2
	if l2 == nil {
		l2 = event.NewLog()
	}
	sp, err := match.NewStreamProblem(cfg.L1, l2, cfg.Patterns, cfg.Mode)
	if err != nil {
		return nil, err
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 256
	}
	s := &Session{
		cfg:      cfg,
		sp:       sp,
		accepted: l2.NumTraces(),
		done:     make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.run()
	return s, nil
}

// Append accepts target traces (each a slice of event names) into the
// session. It returns the total number of traces accepted so far, or
// ErrSessionClosed / ErrBacklogFull. Accepted traces are applied in arrival
// order by the writer; an in-flight search is canceled so the new data is
// reflected promptly.
func (s *Session) Append(traces ...[]string) (int, error) {
	if len(traces) == 0 {
		s.mu.Lock()
		n := s.accepted
		s.mu.Unlock()
		return n, nil
	}
	s.mu.Lock()
	if s.closed || s.aborted {
		s.mu.Unlock()
		return 0, ErrSessionClosed
	}
	if len(s.pending)+len(traces) > s.cfg.MaxPending {
		s.mu.Unlock()
		return 0, ErrBacklogFull
	}
	s.pending = append(s.pending, traces...)
	s.accepted += len(traces)
	n := s.accepted
	cancel := s.searchCancel
	s.cond.Broadcast()
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return n, nil
}

// Accepted reports the total number of target traces accepted so far.
func (s *Session) Accepted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accepted
}

// Done is closed when the writer goroutine has exited (after Close drains or
// Abort fires).
func (s *Session) Done() <-chan struct{} { return s.done }

// Logs returns the session's source log and live target log. The target log
// (and its alphabet) is mutated by the writer goroutine: read it only from
// an OnUpdate callback — which runs on the writer — or after Done is closed.
func (s *Session) Logs() (l1, l2 *event.Log) { return s.cfg.L1, s.sp.Problem().L2 }

// Close stops accepting appends, waits (bounded by ctx) for the writer to
// drain the inbox and publish the final marker, and returns the final
// update. Idempotent; concurrent callers all observe the terminal state. An
// aborted session reports ErrSessionClosed.
func (s *Session) Close(ctx context.Context) (Update, error) {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	select {
	case <-s.done:
	case <-ctx.Done():
		return Update{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aborted {
		return Update{}, ErrSessionClosed
	}
	up := s.cur
	up.Mapping = up.Mapping.Clone()
	return up, nil
}

// Abort terminates the session immediately: pending traces are dropped, an
// in-flight search is canceled and its result discarded, and no final marker
// is published. Blocks until the writer has exited. Idempotent.
func (s *Session) Abort() {
	s.mu.Lock()
	s.aborted = true
	cancel := s.searchCancel
	s.cond.Broadcast()
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	<-s.done
}

// take blocks until there is a batch to apply, the session is drained
// (closed with an empty inbox) or aborted. It returns the whole inbox at
// once — consecutive appends coalesce into one re-search.
func (s *Session) take() ([][]string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.aborted {
			return nil, false
		}
		if len(s.pending) > 0 {
			batch := s.pending
			s.pending = nil
			return batch, true
		}
		if s.closed {
			return nil, false
		}
		s.cond.Wait()
	}
}

// run is the single writer: apply-delta → re-search → publish, until drained
// or aborted.
func (s *Session) run() {
	defer close(s.done)
	for {
		batch, ok := s.take()
		if !ok {
			break
		}
		for _, tr := range batch {
			s.sp.Append(tr...)
		}
		rev := s.sp.NumTraces()

		cctx, cancel := context.WithCancel(context.Background())
		s.mu.Lock()
		if s.aborted {
			s.mu.Unlock()
			cancel()
			return
		}
		s.searchCancel = cancel
		var seed match.Mapping
		if s.hasCur {
			seed = s.cur.Mapping.Clone()
		}
		s.mu.Unlock()

		opts := s.cfg.Options
		opts.Seed = seed
		m, st, err := s.search(cctx, opts)

		s.mu.Lock()
		s.searchCancel = nil
		aborted := s.aborted
		s.mu.Unlock()
		cancel()
		if aborted {
			return
		}
		if err != nil {
			continue // a failed re-search leaves the session open; the next append retries
		}
		up := Update{Revision: rev, Mapping: m, Score: st.Score, Stats: st}
		s.publish(up)
	}

	// Clean drain: re-publish the last state as the final marker so watchers
	// know no further updates follow.
	s.mu.Lock()
	if s.aborted || !s.hasCur {
		s.mu.Unlock()
		return
	}
	s.cur.Final = true
	up := s.cur
	s.mu.Unlock()
	if s.cfg.OnUpdate != nil {
		s.cfg.OnUpdate(up)
	}
}

func (s *Session) publish(up Update) {
	s.mu.Lock()
	s.cur = up
	s.hasCur = true
	s.mu.Unlock()
	if s.cfg.OnUpdate != nil {
		s.cfg.OnUpdate(up)
	}
}

func (s *Session) search(ctx context.Context, opts match.Options) (match.Mapping, match.Stats, error) {
	if s.cfg.Search != nil {
		return s.cfg.Search(ctx, s.sp.Problem(), opts)
	}
	return s.sp.Problem().AStarContext(ctx, opts)
}
