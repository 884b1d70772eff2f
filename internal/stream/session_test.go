package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"eventmatch/internal/event"
	"eventmatch/internal/gen"
	"eventmatch/internal/match"
	"eventmatch/internal/pattern"
)

// traceNames renders a log's traces back to name-level slices.
func traceNames(l *event.Log) [][]string {
	out := make([][]string, l.NumTraces())
	for i, t := range l.Traces {
		names := make([]string, len(t))
		for j, e := range t {
			names[j] = l.Alphabet.Name(e)
		}
		out[i] = names
	}
	return out
}

// latestUpdate keeps a copy of the newest update a session published; its
// observe method is an OnUpdate callback.
type latestUpdate struct {
	mu sync.Mutex
	up Update
}

func (l *latestUpdate) observe(up Update) {
	up.Mapping = up.Mapping.Clone()
	l.mu.Lock()
	l.up = up
	l.mu.Unlock()
}

// waitRevision polls until the session has published a mapping covering at
// least rev traces.
func waitRevision(t *testing.T, l *latestUpdate, rev int) Update {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		l.mu.Lock()
		up := l.up
		l.mu.Unlock()
		if up.Revision >= rev {
			return up
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no update reached revision %d", rev)
	return Update{}
}

// Streamed-vs-batch convergence on the paper's Fig. 1 workload: after every
// appended chunk, once the published revision catches up, the streamed
// mapping must be bit-identical to a cold batch A* over the same prefix.
func TestSessionConvergesToBatch(t *testing.T) {
	g := gen.Fig1()
	var pats []*pattern.Pattern
	for _, src := range g.Patterns {
		p, err := pattern.ParseBind(src, g.L1.Alphabet)
		if err != nil {
			t.Fatal(err)
		}
		pats = append(pats, p)
	}
	traces := traceNames(g.L2)

	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var latest latestUpdate
			s, err := NewSession(SessionConfig{
				L1:       g.L1,
				Patterns: pats,
				Mode:     match.ModePattern,
				Options:  match.Options{Bound: match.BoundSharp},
				OnUpdate: latest.observe,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Abort()

			sent := 0
			for sent < len(traces) {
				n := 1 + rng.Intn(4)
				if sent+n > len(traces) {
					n = len(traces) - sent
				}
				if _, err := s.Append(traces[sent : sent+n]...); err != nil {
					t.Fatal(err)
				}
				sent += n

				up := waitRevision(t, &latest, sent)
				if up.Revision != sent {
					t.Fatalf("revision %d after %d traces", up.Revision, sent)
				}

				// Cold batch run over the same prefix, fresh logs.
				prefix := event.NewLog()
				for _, tr := range traces[:sent] {
					prefix.AppendNames(tr...)
				}
				pr, err := match.BuildProblem(g.L1, prefix, pats, match.ModePattern)
				if err != nil {
					t.Fatal(err)
				}
				bm, bst, err := pr.AStarContext(context.Background(), match.Options{Bound: match.BoundSharp})
				if err != nil {
					t.Fatal(err)
				}
				if len(up.Mapping) != len(bm) {
					t.Fatalf("prefix %d: mapping sizes differ", sent)
				}
				for i := range bm {
					if up.Mapping[i] != bm[i] {
						t.Fatalf("prefix %d: streamed mapping %v, batch %v", sent, up.Mapping, bm)
					}
				}
				if d := up.Score - bst.Score; d > 1e-9 || d < -1e-9 {
					t.Fatalf("prefix %d: streamed score %v, batch %v", sent, up.Score, bst.Score)
				}
			}

			fin, err := s.Close(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !fin.Final || fin.Revision != len(traces) {
				t.Fatalf("final update = %+v", fin)
			}
		})
	}
}

// An append during an in-flight search must cancel it (liveness) and the
// writer must coalesce the backlog into one follow-up search.
func TestSessionLivenessCancel(t *testing.T) {
	l1 := event.FromStrings("A B", "B A")
	started := make(chan int, 16)
	var calls int
	search := func(ctx context.Context, pr *match.Problem, opts match.Options) (match.Mapping, match.Stats, error) {
		calls++
		started <- calls
		if calls == 1 {
			<-ctx.Done() // block until the next append cancels us
			m := match.NewMapping(2)
			return m, match.Stats{Truncated: true, StopReason: match.StopCanceled}, nil
		}
		return pr.AStarContext(context.Background(), opts)
	}
	s, err := NewSession(SessionConfig{L1: l1, Mode: match.ModeVertex, Search: search})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()

	if _, err := s.Append([]string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	<-started // search #1 running, blocked on its context
	if _, err := s.Append([]string{"y", "x"}); err != nil {
		t.Fatal(err)
	}
	if n := <-started; n != 2 {
		t.Fatalf("second search call = %d", n)
	}
	fin, err := s.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fin.Revision != 2 {
		t.Fatalf("final revision = %d, want 2 (coalesced)", fin.Revision)
	}
	if calls != 2 {
		t.Fatalf("search calls = %d, want 2", calls)
	}
}

// The bounded inbox must reject (not drop or block) appends beyond capacity,
// and appends after Close must fail.
func TestSessionBacklogAndClose(t *testing.T) {
	l1 := event.FromStrings("A B")
	block := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	search := func(ctx context.Context, pr *match.Problem, opts match.Options) (match.Mapping, match.Stats, error) {
		once.Do(func() {
			close(started)
			<-block
		})
		return pr.AStarContext(context.Background(), opts)
	}
	s, err := NewSession(SessionConfig{L1: l1, Mode: match.ModeVertex, Search: search, MaxPending: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()

	if _, err := s.Append([]string{"a"}); err != nil { // drained into search #1
		t.Fatal(err)
	}
	<-started // the writer took the first batch; the inbox is empty
	if _, err := s.Append([]string{"b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]string{"c"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]string{"d"}); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("overflow append err = %v, want ErrBacklogFull", err)
	}
	close(block)
	fin, err := s.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fin.Revision != 3 {
		t.Fatalf("final revision = %d, want 3", fin.Revision)
	}
	if _, err := s.Append([]string{"e"}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("append after close err = %v, want ErrSessionClosed", err)
	}
}

// Abort must terminate promptly even with a search in flight, reject
// subsequent appends, and leave Close reporting the aborted state.
func TestSessionAbort(t *testing.T) {
	l1 := event.FromStrings("A B")
	search := func(ctx context.Context, pr *match.Problem, opts match.Options) (match.Mapping, match.Stats, error) {
		<-ctx.Done()
		return match.NewMapping(2), match.Stats{Truncated: true, StopReason: match.StopCanceled}, nil
	}
	s, err := NewSession(SessionConfig{L1: l1, Mode: match.ModeVertex, Search: search})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	select {
	case <-s.Done():
	default:
		t.Fatal("Done not closed after Abort")
	}
	if _, err := s.Append([]string{"b"}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("append after abort err = %v, want ErrSessionClosed", err)
	}
	if _, err := s.Close(context.Background()); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("close after abort err = %v, want ErrSessionClosed", err)
	}
}

// TestStreamSessionStress hammers one session with concurrent appenders,
// readers and a drain mid-stream, then audits the terminal state: every
// accepted trace is reflected in the final revision, the published score is
// consistent with a from-scratch problem over the exact final log, and the
// update stream is revision-monotone. Runs under -race in the CI stress
// step.
func TestStreamSessionStress(t *testing.T) {
	l1 := event.FromStrings("A B C", "A C B", "A B C")

	var upMu sync.Mutex
	var revisions []int
	s, err := NewSession(SessionConfig{
		L1:   l1,
		Mode: match.ModeVertexEdge,
		OnUpdate: func(up Update) {
			if up.Revision <= 0 || len(up.Mapping) != l1.NumEvents() {
				t.Errorf("malformed update %+v", up)
			}
			upMu.Lock()
			revisions = append(revisions, up.Revision)
			upMu.Unlock()
		},
		MaxPending: 64,
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		appenders  = 4
		perAppend  = 30
		namePool   = 4
		closeAfter = 60 // traces before the drain fires
	)
	var (
		wg       sync.WaitGroup
		statsMu  sync.Mutex
		sent     [][]string // traces the session accepted
		rejected int        // closed-session rejections observed
	)
	closeGate := make(chan struct{})
	var closeOnce sync.Once

	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + a)))
			for i := 0; i < perAppend; i++ {
				tr := make([]string, 1+rng.Intn(4))
				for j := range tr {
					tr[j] = fmt.Sprintf("n%d", rng.Intn(namePool))
				}
				for {
					n, err := s.Append(tr)
					if err == nil {
						statsMu.Lock()
						sent = append(sent, tr)
						statsMu.Unlock()
						if n >= closeAfter {
							closeOnce.Do(func() { close(closeGate) })
						}
						break
					}
					if errors.Is(err, ErrSessionClosed) {
						statsMu.Lock()
						rejected++
						statsMu.Unlock()
						return
					}
					if !errors.Is(err, ErrBacklogFull) {
						t.Errorf("append: %v", err)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(a)
	}

	// Readers poll the public surface while the appenders run.
	readerStop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-readerStop:
					return
				default:
				}
				_ = s.Accepted()
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}

	// Drain mid-stream: close while appenders are still pushing.
	<-closeGate
	fin, err := s.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	close(readerStop)
	wg.Wait()

	// Terminal-state audit.
	statsMu.Lock()
	accepted := len(sent)
	statsMu.Unlock()
	if fin.Revision != accepted {
		t.Fatalf("final revision %d, accepted %d", fin.Revision, accepted)
	}
	if !fin.Final {
		t.Fatalf("final update not marked Final: %+v", fin)
	}
	if s.Accepted() != accepted {
		t.Fatalf("Accepted() = %d, want %d", s.Accepted(), accepted)
	}
	if _, err := s.Append([]string{"n0"}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("append after drain err = %v", err)
	}

	// The final mapping must be injective over real targets and score-
	// consistent with a from-scratch problem over the final log.
	_, l2 := s.Logs()
	if l2.NumTraces() != accepted {
		t.Fatalf("target log has %d traces, accepted %d", l2.NumTraces(), accepted)
	}
	usedTargets := map[event.ID]bool{}
	for _, v := range fin.Mapping {
		if v == event.None {
			continue
		}
		if int(v) >= l2.NumEvents() {
			t.Fatalf("mapping names target %d outside the real alphabet (%d)", v, l2.NumEvents())
		}
		if usedTargets[v] {
			t.Fatalf("mapping not injective: %v", fin.Mapping)
		}
		usedTargets[v] = true
	}
	freshL2 := event.NewLog()
	for _, tr := range traceNames(l2) {
		freshL2.AppendNames(tr...)
	}
	pr, err := match.BuildProblem(l1, freshL2, nil, match.ModeVertexEdge)
	if err != nil {
		t.Fatal(err)
	}
	if d := pr.Distance(fin.Mapping) - fin.Score; d > 1e-9 || d < -1e-9 {
		t.Fatalf("final score %v, from-scratch distance %v", fin.Score, pr.Distance(fin.Mapping))
	}

	// Revision monotonicity of the update stream (final marker repeats the
	// last revision).
	upMu.Lock()
	defer upMu.Unlock()
	for i := 1; i < len(revisions); i++ {
		if revisions[i] < revisions[i-1] {
			t.Fatalf("revisions not monotone: %v", revisions)
		}
	}
	if len(revisions) == 0 || revisions[len(revisions)-1] != accepted {
		t.Fatalf("last revision %v, accepted %d", revisions, accepted)
	}
}
