package pattern

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"eventmatch/internal/event"
	"eventmatch/internal/telemetry"
)

// Parallel evaluation parameters.
const (
	// minParallelTraces is the candidate-list size below which a frequency
	// scan stays sequential: sharding a handful of traces costs more in
	// goroutine startup and cache traffic than the scan itself.
	minParallelTraces = 256

	// cancelCheckEvery is how many traces a scan worker processes between
	// context polls. Polling is cheap (an atomic load) but not free; this
	// keeps it off the profile while bounding how far a canceled scan runs.
	cancelCheckEvery = 512
)

// Engine evaluates pattern frequencies over an indexed log with a pool of
// worker goroutines. The parallel grain is the trace (the natural
// decomposition unit for log computations): the candidate trace list of a
// pattern is sharded into contiguous chunks, each worker counts matches in
// its chunk, and the integer partial counts are summed at the end — integer
// addition is associative and commutative, so the merged frequency is
// bit-identical to the sequential scan regardless of worker scheduling.
//
// An Engine is safe for concurrent use. The worker count may be changed at
// any time with SetWorkers; 1 forces fully sequential evaluation (no
// goroutines are spawned at all).
//
// Candidate computation is allocation-free in steady state: each evaluation
// draws a scanScratch from a sync.Pool, ANDs the pattern's event bitsets
// into its word buffer, and walks the set bits into its candidate buffer.
// When the intersection is empty the trace scan is skipped entirely — the
// index-only fast path — and the pattern.index_skips counter records it.
type Engine struct {
	ix      *TraceIndex
	workers atomic.Int32
	tele    atomic.Pointer[engineTelemetry]
	scratch sync.Pool // *scanScratch
}

// scanScratch holds the per-evaluation reusable buffers: the bitset word
// buffer the ∩It(v) intersection is ANDed into, and the candidate trace-id
// slice the set bits are decoded into. Pooled so that steady-state frequency
// evaluation allocates nothing.
type scanScratch struct {
	words []uint64
	cand  []int32
}

func (e *Engine) getScratch() *scanScratch {
	if sc, ok := e.scratch.Get().(*scanScratch); ok {
		return sc
	}
	return &scanScratch{}
}

func (e *Engine) putScratch(sc *scanScratch) { e.scratch.Put(sc) }

// candidates computes the sorted candidate trace list ∩It(v) for the given
// events into sc's reusable buffers. The returned slice aliases sc.cand and
// is only valid until sc is reused or returned to the pool. An empty
// intersection returns nil without decoding any trace index.
func (e *Engine) candidates(sc *scanScratch, events []event.ID) []int32 {
	nw := e.ix.nw
	if cap(sc.words) < nw {
		sc.words = make([]uint64, nw)
	}
	sc.words = sc.words[:nw]
	n := e.ix.intersectInto(sc.words, events)
	if n == 0 {
		return nil
	}
	if cap(sc.cand) < n {
		sc.cand = make([]int32, 0, n)
	}
	sc.cand = appendSetBits(sc.cand[:0], sc.words)
	return sc.cand
}

// engineTelemetry holds the engine's pre-resolved metric handles. The
// pointer is swapped atomically by SetTelemetry, so scans racing with a
// telemetry change keep a consistent handle set.
type engineTelemetry struct {
	reg           *telemetry.Registry
	scans         *telemetry.Counter // engine.scans: frequency scans started
	parallelScans *telemetry.Counter // engine.parallel_scans: scans that sharded across workers
	traces        *telemetry.Counter // engine.traces_scanned: candidate traces examined
	matches       *telemetry.Counter // engine.trace_matches: candidate traces that matched
	indexSkips    *telemetry.Counter // pattern.index_skips: evaluations resolved index-only (empty ∩It)
	imbalance     *telemetry.Counter // engine.shard_imbalance_traces: Σ (largest − smallest shard)
	scanTime      *telemetry.Timer   // engine.scan_time: per-scan wall clock
}

// workerTraces resolves the per-worker-slot trace counter
// ("engine.worker.NN.traces"), exposing how evenly the candidate shards
// spread over the pool. Resolved per scan, not per trace, so the registry
// lookup stays off the hot path.
func (t *engineTelemetry) workerTraces(g int) *telemetry.Counter {
	return t.reg.Counter(fmt.Sprintf("engine.worker.%02d.traces", g))
}

// SetTelemetry attaches (or, with nil, detaches) a metrics registry. Safe to
// call concurrently with evaluations; in-flight scans keep the handles they
// started with.
func (e *Engine) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		e.tele.Store(nil)
		return
	}
	e.tele.Store(&engineTelemetry{
		reg:           reg,
		scans:         reg.Counter("engine.scans"),
		parallelScans: reg.Counter("engine.parallel_scans"),
		traces:        reg.Counter("engine.traces_scanned"),
		matches:       reg.Counter("engine.trace_matches"),
		indexSkips:    reg.Counter("pattern.index_skips"),
		imbalance:     reg.Counter("engine.shard_imbalance_traces"),
		scanTime:      reg.Timer("engine.scan_time"),
	})
}

// NewEngine wraps a trace index with a frequency evaluator using the given
// number of workers. workers <= 0 selects one worker per available CPU
// (runtime.GOMAXPROCS); workers == 1 is fully sequential.
func NewEngine(ix *TraceIndex, workers int) *Engine {
	e := &Engine{ix: ix}
	e.SetWorkers(workers)
	return e
}

// SetWorkers changes the worker-pool size. n <= 0 selects GOMAXPROCS.
// Safe to call concurrently with evaluations; in-flight scans keep the
// worker count they started with.
func (e *Engine) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.workers.Store(int32(n))
}

// Workers reports the current worker-pool size.
func (e *Engine) Workers() int { return int(e.workers.Load()) }

// Index returns the underlying trace index.
func (e *Engine) Index() *TraceIndex { return e.ix }

// Frequency computes f(p) over the indexed log; the uncancellable
// convenience form of FrequencyContext.
func (e *Engine) Frequency(p *Pattern) float64 {
	f, _ := e.FrequencyContext(context.Background(), p)
	return f
}

// FrequencyContext computes f(p) over the indexed log, scanning only the
// traces that contain all of p's events, sharded across the engine's
// workers. On cancellation mid-scan it returns (0, ctx.Err()); a completed
// scan is never affected by a cancellation that arrives after its last
// trace. The returned frequency is bit-identical at every worker count,
// and equal to Pattern.Frequency's unindexed scan of the same log.
func (e *Engine) FrequencyContext(ctx context.Context, p *Pattern) (float64, error) {
	n, err := e.CountContext(ctx, p)
	if err != nil {
		return 0, err
	}
	return e.normalize(n), nil
}

// CountContext computes the raw match count of p — the number of traces the
// pattern matches, before normalization by NumTraces. This is the
// denominator-free form FrequencyCache memoizes so that appended traces
// change a cached pattern's frequency without invalidating its count. The
// scan behavior is identical to FrequencyContext.
func (e *Engine) CountContext(ctx context.Context, p *Pattern) (int, error) {
	if e.ix.log.NumTraces() == 0 {
		return 0, ctx.Err()
	}
	sc := e.getScratch()
	n, err := e.countMatches(ctx, p, e.candidates(sc, p.Events()))
	e.putScratch(sc)
	if err != nil {
		return 0, err
	}
	return n, nil
}

func (e *Engine) normalize(count int) float64 {
	if total := e.ix.log.NumTraces(); total > 0 {
		return float64(count) / float64(total)
	}
	return 0
}

// countMatches counts the candidate traces matching p, sharding the
// candidate list across workers when it is large enough to pay off. An
// empty candidate list means the index already proved f(p) = 0; the scan is
// skipped and pattern.index_skips incremented.
func (e *Engine) countMatches(ctx context.Context, p *Pattern, cand []int32) (int, error) {
	tele := e.tele.Load()
	if tele != nil {
		sp := tele.scanTime.Start()
		defer sp.Stop()
		tele.scans.Inc()
		tele.traces.Add(int64(len(cand)))
	}
	if len(cand) == 0 {
		if tele != nil {
			tele.indexSkips.Inc()
		}
		return 0, nil
	}
	w := e.Workers()
	if w <= 1 || len(cand) < minParallelTraces {
		n, err := e.countRange(ctx, p, cand, nil)
		if err == nil && tele != nil {
			tele.matches.Add(int64(n))
		}
		return n, err
	}
	if max := len(cand) / (minParallelTraces / 2); w > max {
		w = max // keep every shard at a meaningful size
	}
	chunk := (len(cand) + w - 1) / w
	counts := make([]int, w)
	errs := make([]error, w)
	var canceled atomic.Bool
	var wg sync.WaitGroup
	minShard, maxShard := len(cand), 0
	for g := 0; g < w; g++ {
		lo := g * chunk
		hi := lo + chunk
		if hi > len(cand) {
			hi = len(cand)
		}
		if lo >= hi {
			break
		}
		if tele != nil {
			tele.workerTraces(g).Add(int64(hi - lo))
			if hi-lo < minShard {
				minShard = hi - lo
			}
			if hi-lo > maxShard {
				maxShard = hi - lo
			}
		}
		wg.Add(1)
		go func(g int, part []int32) {
			defer wg.Done()
			counts[g], errs[g] = e.countRange(ctx, p, part, &canceled)
		}(g, cand[lo:hi])
	}
	wg.Wait()
	if tele != nil {
		tele.parallelScans.Inc()
		tele.imbalance.Add(int64(maxShard - minShard))
	}
	n := 0
	for g := 0; g < w; g++ {
		if errs[g] != nil {
			return 0, errs[g]
		}
		n += counts[g]
	}
	e.assertShardSum(ctx, p, cand, n)
	if tele != nil {
		tele.matches.Add(int64(n))
	}
	return n, nil
}

// countRange counts the matches of p among the given candidate traces,
// polling ctx every cancelCheckEvery traces. canceled, when non-nil, is a
// flag shared with sibling shards so one observed cancellation stops all of
// them without each paying the context poll.
func (e *Engine) countRange(ctx context.Context, p *Pattern, cand []int32, canceled *atomic.Bool) (int, error) {
	n := 0
	for i, ti := range cand {
		if i%cancelCheckEvery == 0 {
			if canceled != nil && canceled.Load() {
				return 0, context.Canceled
			}
			if err := ctx.Err(); err != nil {
				if canceled != nil {
					canceled.Store(true)
				}
				return 0, err
			}
		}
		if p.MatchesTrace(e.ix.log.Traces[ti]) {
			n++
		}
	}
	return n, nil
}
