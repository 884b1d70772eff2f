package pattern_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"eventmatch/internal/event"
	"eventmatch/internal/gen"
	"eventmatch/internal/pattern"
	"eventmatch/internal/telemetry"
)

// testPatterns builds a mixed pattern set over l's alphabet: every vertex,
// a few SEQ pairs and triples, and an AND — enough shape diversity to
// exercise both the candidate-list intersection and the window scan.
func testPatterns(t *testing.T, l *event.Log, extra []string) []*pattern.Pattern {
	t.Helper()
	var ps []*pattern.Pattern
	n := l.NumEvents()
	for v := 0; v < n; v++ {
		ps = append(ps, pattern.Single(event.ID(v)))
	}
	for v := 0; v+1 < n; v += 2 {
		ps = append(ps, pattern.MustSeq(pattern.Single(event.ID(v)), pattern.Single(event.ID(v+1))))
	}
	if n >= 3 {
		ps = append(ps,
			pattern.MustSeq(pattern.Single(0), pattern.Single(1), pattern.Single(2)),
			pattern.MustAnd(pattern.Single(0), pattern.Single(event.ID(n-1))),
			pattern.MustSeq(pattern.Single(0), pattern.MustAnd(pattern.Single(1), pattern.Single(2))),
		)
	}
	for _, src := range extra {
		p, err := pattern.ParseBind(src, l.Alphabet)
		if err != nil {
			t.Fatalf("bind %q: %v", src, err)
		}
		ps = append(ps, p)
	}
	return ps
}

// TestEngineMatchesSequential asserts that the parallel engine returns
// exactly the frequencies of the unindexed sequential scan
// (Pattern.Frequency), for every worker count, on randomized logs of
// several shapes.
func TestEngineMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		log  *event.Log
		pats []*pattern.Pattern
	}{}
	real := gen.RealLike(1, 600)
	cases = append(cases, struct {
		name string
		log  *event.Log
		pats []*pattern.Pattern
	}{"real-like", real.L1, testPatterns(t, real.L1, real.Patterns)})

	syn := gen.LargeSynthetic(2, 5, 900)
	cases = append(cases, struct {
		name string
		log  *event.Log
		pats []*pattern.Pattern
	}{"synthetic", syn.L1, testPatterns(t, syn.L1, syn.Patterns)})

	rnd := gen.RandomPair(3, 8, 3000, 12)
	cases = append(cases, struct {
		name string
		log  *event.Log
		pats []*pattern.Pattern
	}{"random", rnd.L1, testPatterns(t, rnd.L1, nil)})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix := pattern.NewTraceIndex(tc.log)
			want := make([]float64, len(tc.pats))
			for i, p := range tc.pats {
				want[i] = p.Frequency(tc.log)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				eng := pattern.NewEngine(ix, workers)
				if got := eng.Workers(); got != workers {
					t.Fatalf("Workers() = %d, want %d", got, workers)
				}
				for i, p := range tc.pats {
					if got := eng.Frequency(p); got != want[i] {
						t.Errorf("workers=%d pattern %d: Frequency = %v, want %v", workers, i, got, want[i])
					}
				}
			}
		})
	}
}

// TestEngineCancellation covers the mid-scan cancellation contract: a
// pre-canceled context yields (0, ctx.Err()) without touching the result,
// and a context canceled concurrently with the scan yields either the exact
// sequential value or a cancellation error — never a partial count.
func TestEngineCancellation(t *testing.T) {
	g := gen.LargeSynthetic(4, 5, 2000)
	ix := pattern.NewTraceIndex(g.L1)
	p := pattern.MustSeq(pattern.Single(0), pattern.Single(1), pattern.Single(2))
	want := p.Frequency(g.L1)

	for _, workers := range []int{1, 4} {
		eng := pattern.NewEngine(ix, workers)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if f, err := eng.FrequencyContext(ctx, p); err != context.Canceled || f != 0 {
			t.Errorf("workers=%d pre-canceled: got (%v, %v), want (0, context.Canceled)", workers, f, err)
		}
	}

	// Racing cancellation: all-or-nothing, whichever side wins.
	for i := 0; i < 20; i++ {
		eng := pattern.NewEngine(ix, 4)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
			cancel()
		}()
		f, err := eng.FrequencyContext(ctx, p)
		<-done
		if err == nil && f != want {
			t.Fatalf("racing cancel: completed scan returned %v, want %v", f, want)
		}
		if err != nil && f != 0 {
			t.Fatalf("racing cancel: canceled scan returned nonzero frequency %v", f)
		}
	}
}

// TestFrequencyCacheConcurrent is the -race regression test for the
// formerly unsynchronized cache: hammer Frequency, the metric snapshot and
// SetWorkers from many goroutines and check the counters balance.
func TestFrequencyCacheConcurrent(t *testing.T) {
	g := gen.RealLike(5, 200)
	c := pattern.NewFrequencyCache(pattern.NewTraceIndex(g.L1))
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)
	ps := testPatterns(t, g.L1, g.Patterns)
	want := make([]float64, len(ps))
	for i, p := range ps {
		want[i] = p.Frequency(g.L1)
	}

	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	for gor := 0; gor < goroutines; gor++ {
		wg.Add(1)
		go func(gor int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				pi := (gor + i) % len(ps)
				if got := c.Frequency(ps[pi]); got != want[pi] {
					t.Errorf("concurrent Frequency(%d) = %v, want %v", pi, got, want[pi])
					return
				}
				if i%50 == 0 {
					pattern.CacheCounts(reg)
					c.SetWorkers(1 + i%4)
				}
			}
		}(gor)
	}
	wg.Wait()

	hits, misses, _ := pattern.CacheCounts(reg)
	if hits+misses != goroutines*iters {
		t.Errorf("hits(%d) + misses(%d) = %d, want %d", hits, misses, hits+misses, goroutines*iters)
	}
	if misses < int64(len(ps)) {
		t.Errorf("misses = %d, want at least one per distinct pattern (%d)", misses, len(ps))
	}
}

// TestFrequencyCacheContext checks that cancellations are propagated and
// never memoized: a canceled lookup errors, and the next lookup of the same
// pattern still computes (and then caches) the true value.
func TestFrequencyCacheContext(t *testing.T) {
	g := gen.RealLike(6, 300)
	c := pattern.NewFrequencyCache(pattern.NewTraceIndex(g.L1))
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)
	p := pattern.MustSeq(pattern.Single(0), pattern.Single(1))
	want := p.Frequency(g.L1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.FrequencyContext(ctx, p); err != context.Canceled {
		t.Fatalf("canceled lookup: err = %v, want context.Canceled", err)
	}
	if got := c.Frequency(p); got != want {
		t.Fatalf("post-cancel lookup = %v, want %v", got, want)
	}
	hits, misses, _ := pattern.CacheCounts(reg)
	if hits != 0 || misses != 2 {
		t.Fatalf("counts after cancel+retry = (%d, %d), want (0, 2): partial scans must not be cached", hits, misses)
	}
	if got := c.Frequency(p); got != want {
		t.Fatalf("cached lookup = %v, want %v", got, want)
	}
	if hits, _, _ := pattern.CacheCounts(reg); hits != 1 {
		t.Fatalf("hits after third lookup = %d, want 1", hits)
	}
}

// TestEngineWorkerTelemetry checks the per-worker scan counters: a scan
// large enough to shard spreads its candidates over the worker slots, and
// the slots' counts add up to the traces scanned. The engine keeps the
// index it was built on.
func TestEngineWorkerTelemetry(t *testing.T) {
	g := gen.LargeSynthetic(5, 2, 2000)
	ix := pattern.NewTraceIndex(g.L1)
	eng := pattern.NewEngine(ix, 4)
	if eng.Index() != ix {
		t.Fatal("Index() is not the index the engine was built on")
	}
	reg := telemetry.NewRegistry()
	eng.SetTelemetry(reg)
	p := pattern.Single(0)
	if got, want := eng.Frequency(p), p.Frequency(g.L1); got != want {
		t.Fatalf("Frequency = %v, want %v", got, want)
	}
	snap := reg.Snapshot()
	scanned := snap.Counters["engine.traces_scanned"]
	if scanned < 512 {
		t.Fatalf("scanned %d traces; the case needs a scan large enough to shard", scanned)
	}
	if snap.Counters["engine.parallel_scans"] != 1 {
		t.Fatalf("parallel_scans = %d, want 1", snap.Counters["engine.parallel_scans"])
	}
	var sum int64
	slots := 0
	for g := 0; g < 4; g++ {
		n := snap.Counters[fmt.Sprintf("engine.worker.%02d.traces", g)]
		if n > 0 {
			slots++
		}
		sum += n
	}
	if sum != scanned || slots < 2 {
		t.Errorf("worker slots hold %d traces over %d slots, scanned %d", sum, slots, scanned)
	}
}
