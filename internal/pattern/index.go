package pattern

import (
	"context"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"eventmatch/internal/event"
	"eventmatch/internal/telemetry"
)

// PatternIndex is the inverted index Ip of Section 3.2.1: for each event, the
// (indices of) patterns that contain it.
//
// The index is dense: it is a slice keyed directly by the event's interned
// ID, not a map, so the A* expansion loop (which consults Ip once per
// candidate mapping) pays an array load instead of a hash probe. This relies
// on the interning contract of event.Alphabet — IDs are assigned
// contiguously from 0 per log, stable for the lifetime of that alphabet, and
// carry no meaning across logs. A PatternIndex built over L1's patterns must
// therefore only ever be queried with L1 IDs; IDs outside the indexed range
// (including event.None) simply report no patterns.
type PatternIndex struct {
	patterns []*Pattern
	byEvent  [][]int // byEvent[v] = indices of patterns containing event v
}

// NewPatternIndex indexes the given pattern set. The index refers to
// patterns by their position; further patterns can be appended with Add.
func NewPatternIndex(patterns []*Pattern) *PatternIndex {
	ix := &PatternIndex{}
	for _, p := range patterns {
		ix.Add(p)
	}
	return ix
}

// Containing returns the indices of patterns containing event v. Events
// outside the indexed range (and event.None) yield nil.
func (ix *PatternIndex) Containing(v event.ID) []int {
	if uint(v) >= uint(len(ix.byEvent)) {
		return nil
	}
	return ix.byEvent[v]
}

// Degree returns the number of patterns containing event v; the A* expansion
// order picks the unmapped event with the highest degree first (§3.1).
func (ix *PatternIndex) Degree(v event.ID) int { return len(ix.Containing(v)) }

// TraceIndex is the inverted index It of Section 3.2.3: for each event, the
// set of traces (indices into the log) containing it, stored as a
// trace-membership bitset per event and served by Bits.
//
// Bitset word layout: all bitsets share one flat []uint64 backing array of
// NumEvents×nw words, where nw = ⌈NumTraces/64⌉. Event e owns the word range
// [e·nw, (e+1)·nw); within it, trace t is bit t%64 of word t/64 (bit 0 =
// least significant). The flat layout keeps an event's words contiguous, so
// the ∩It(v) candidate intersection of Section 3.2.3 is a straight word-wise
// AND with popcount — k·nw word operations regardless of how many traces
// contain each event — and an empty intersection is detected without ever
// touching a trace (the index-only fast path, surfaced as the
// pattern.index_skips counter by Engine).
//
// Like PatternIndex, the trace index is keyed by the log's interned event
// IDs; IDs from any other alphabet are meaningless here, and out-of-range
// IDs yield empty results.
type TraceIndex struct {
	log     *event.Log
	words   []uint64 // flat bitsets: event e owns words[e*nw : (e+1)*nw]
	nw      int      // words per event bitset = ceil(NumTraces/64)
	nEvents int      // events with a bitset row
}

// NewTraceIndex builds the trace index for a log.
func NewTraceIndex(l *event.Log) *TraceIndex {
	nEvents := l.NumEvents()
	nw := (l.NumTraces() + 63) / 64
	ix := &TraceIndex{
		log:     l,
		words:   make([]uint64, nEvents*nw),
		nw:      nw,
		nEvents: nEvents,
	}
	for ti, t := range l.Traces {
		w, bit := ti>>6, uint64(1)<<(uint(ti)&63)
		for _, e := range t {
			ix.words[int(e)*nw+w] |= bit
		}
	}
	return ix
}

// Log returns the indexed log.
func (ix *TraceIndex) Log() *event.Log { return ix.log }

// Bits returns event v's trace-membership bitset: bit t%64 of word t/64 is
// set iff trace t contains v. The returned slice aliases the index and must
// not be modified; events outside the alphabet yield nil.
func (ix *TraceIndex) Bits(v event.ID) []uint64 {
	if uint(v) >= uint(ix.nEvents) {
		return nil
	}
	return ix.words[int(v)*ix.nw : (int(v)+1)*ix.nw]
}

// intersectInto ANDs the trace bitsets of the given events into dst (which
// must have length nw) and returns the number of set bits — the size of
// ∩It(v). It returns 0 without completing the AND as soon as the running
// intersection empties, and 0 immediately for an empty event list or any
// event outside the alphabet.
func (ix *TraceIndex) intersectInto(dst []uint64, events []event.ID) int {
	if len(events) == 0 || ix.nw == 0 {
		return 0
	}
	first := ix.Bits(events[0])
	if first == nil {
		return 0
	}
	copy(dst, first)
	for _, v := range events[1:] {
		b := ix.Bits(v)
		if b == nil {
			return 0
		}
		var any uint64
		for w := range dst {
			dst[w] &= b[w]
			any |= dst[w]
		}
		if any == 0 {
			return 0
		}
	}
	n := 0
	for _, w := range dst {
		n += bits.OnesCount64(w)
	}
	return n
}

// appendSetBits appends the positions of the set bits of words to dst in
// ascending order (trace t = word t/64, bit t%64) and returns dst.
func appendSetBits(dst []int32, words []uint64) []int32 {
	for wi, w := range words {
		base := int32(wi << 6)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// cacheShards is the number of independently locked segments of a
// FrequencyCache. 32 keeps lock contention negligible for any realistic
// worker count while the per-shard maps stay dense.
const cacheShards = 32

// cacheEntry is one memoized pattern evaluation. The cache stores the raw
// match COUNT, not the normalized frequency: appending a trace to the log
// changes the denominator (NumTraces) of every frequency at once, so a
// frequency-valued cache would have to drop every entry per append. A
// count-valued entry stays correct as long as no appended trace can change
// the pattern's match count, and the hit path re-normalizes against the live
// trace total — bit-identical to Engine.FrequencyContext, which computes
// float64(count)/float64(total) in one division.
type cacheEntry struct {
	count  int
	events []event.ID // the pattern's distinct events (shared, read-only)
}

type cacheShard struct {
	mu      sync.Mutex
	m       map[string]cacheEntry
	byEvent map[event.ID][]string // reverse index: event → keys of entries mentioning it
	hits    atomic.Int64
	miss    atomic.Int64
	inval   atomic.Int64
}

// unlink removes key from the byEvent posting of every given event.
// Caller holds sh.mu.
func (sh *cacheShard) unlink(key string, events []event.ID) {
	for _, v := range events {
		keys := sh.byEvent[v]
		for i, k := range keys {
			if k == key {
				keys[i] = keys[len(keys)-1]
				keys = keys[:len(keys)-1]
				break
			}
		}
		if len(keys) == 0 {
			delete(sh.byEvent, v)
		} else {
			sh.byEvent[v] = keys
		}
	}
}

// FrequencyCache memoizes pattern frequencies keyed by the pattern's order
// signature, on top of a frequency Engine. The same mapped pattern is often
// re-evaluated many times during A* search; caching makes that cheap.
//
// The cache is safe for concurrent use: the memo table is split into
// cacheShards segments each guarded by its own mutex (keys are distributed
// by FNV-1a hash), and each shard keeps its own atomic hit/miss/invalidation
// counters so concurrent lookups never contend on a shared cache-wide
// counter cache line. Signature keys are rendered into pooled byte buffers
// and looked up via the compiler's zero-copy map[string] access, so a cache
// hit allocates nothing; only a miss pays one string allocation when the
// entry is inserted.
type FrequencyCache struct {
	eng     *Engine
	shards  [cacheShards]cacheShard
	sigBufs sync.Pool // *[]byte signature scratch
}

// NewFrequencyCache wraps a trace index with a frequency memo table using a
// sequential (single-worker) evaluation engine.
func NewFrequencyCache(ix *TraceIndex) *FrequencyCache {
	return NewFrequencyCacheEngine(NewEngine(ix, 1))
}

// NewFrequencyCacheEngine wraps a frequency engine with a memo table,
// inheriting the engine's worker-pool size for uncached evaluations.
func NewFrequencyCacheEngine(eng *Engine) *FrequencyCache {
	c := &FrequencyCache{eng: eng}
	for i := range c.shards {
		c.shards[i].m = make(map[string]cacheEntry)
		c.shards[i].byEvent = make(map[event.ID][]string)
	}
	return c
}

// SetWorkers changes the worker-pool size used for uncached evaluations.
// n <= 0 selects GOMAXPROCS; 1 is fully sequential.
func (c *FrequencyCache) SetWorkers(n int) { c.eng.SetWorkers(n) }

// Engine returns the underlying frequency engine.
func (c *FrequencyCache) Engine() *Engine { return c.eng }

// SetTelemetry attaches a metrics registry to the cache and its engine.
// Cache-level values are published as func gauges evaluated at snapshot
// time (cache.hits, cache.misses, cache.invalidations, cache.entries,
// cache.shard_imbalance), so the hot lookup path pays no registry work.
// A nil registry detaches the engine and is otherwise a no-op.
func (c *FrequencyCache) SetTelemetry(reg *telemetry.Registry) {
	c.eng.SetTelemetry(reg)
	if reg == nil {
		return
	}
	reg.RegisterFunc("cache.hits", func() int64 {
		var n int64
		for i := range c.shards {
			n += c.shards[i].hits.Load()
		}
		return n
	})
	reg.RegisterFunc("cache.misses", func() int64 {
		var n int64
		for i := range c.shards {
			n += c.shards[i].miss.Load()
		}
		return n
	})
	reg.RegisterFunc("cache.invalidations", func() int64 {
		var n int64
		for i := range c.shards {
			n += c.shards[i].inval.Load()
		}
		return n
	})
	reg.RegisterFunc("cache.entries", func() int64 {
		var n int64
		for i := range c.shards {
			c.shards[i].mu.Lock()
			n += int64(len(c.shards[i].m))
			c.shards[i].mu.Unlock()
		}
		return n
	})
	reg.RegisterFunc("cache.shard_imbalance", func() int64 {
		min, max := -1, 0
		for i := range c.shards {
			c.shards[i].mu.Lock()
			n := len(c.shards[i].m)
			c.shards[i].mu.Unlock()
			if min < 0 || n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if min < 0 {
			min = 0
		}
		return int64(max - min)
	})
}

// shardOf distributes a cache key over the shards by FNV-1a hash.
func shardOf(key []byte) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % cacheShards)
}

// Frequency returns f(p), consulting the cache first.
func (c *FrequencyCache) Frequency(p *Pattern) float64 {
	f, _ := c.FrequencyContext(context.Background(), p)
	return f
}

// FrequencyContext returns f(p), consulting the cache first. A cancellation
// observed mid-scan returns (0, ctx.Err()) and leaves the cache untouched —
// partial scans are never memoized.
func (c *FrequencyCache) FrequencyContext(ctx context.Context, p *Pattern) (float64, error) {
	bufp, _ := c.sigBufs.Get().(*[]byte)
	if bufp == nil {
		bufp = new([]byte)
	}
	key := appendSignature((*bufp)[:0], p)
	*bufp = key
	sh := &c.shards[shardOf(key)]
	sh.mu.Lock()
	e, ok := sh.m[string(key)] // zero-copy lookup: no string allocation
	sh.mu.Unlock()
	if ok {
		c.sigBufs.Put(bufp)
		sh.hits.Add(1)
		// Normalize at read time against the live trace total, so entries
		// survive appends that cannot change their count.
		return c.eng.normalize(e.count), nil
	}
	sh.miss.Add(1)
	n, err := c.eng.CountContext(ctx, p)
	if err != nil {
		c.sigBufs.Put(bufp)
		return 0, err
	}
	sh.mu.Lock()
	if _, exists := sh.m[string(key)]; !exists {
		ks := string(key) // insert allocates the key string once
		for _, v := range p.Events() {
			sh.byEvent[v] = append(sh.byEvent[v], ks)
		}
		sh.m[ks] = cacheEntry{count: n, events: p.Events()}
	}
	sh.mu.Unlock()
	c.sigBufs.Put(bufp)
	return c.eng.normalize(n), nil
}

// Invalidate drops every memoized entry whose event set is contained in the
// given event set, and returns how many entries were dropped. This is the
// targeted invalidation for an appended trace: a new trace can change a
// pattern's match count only if the trace contains every event of the
// pattern (a trace missing any pattern event can never match it), so exactly
// the entries whose events are a subset of the trace's distinct events are
// stale. Callers pass event.Delta.Events.
func (c *FrequencyCache) Invalidate(events []event.ID) int {
	if len(events) == 0 {
		return 0
	}
	dropped := 0
	var victims []string // reused across shards
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		victims = victims[:0]
		for _, v := range events {
			for _, key := range sh.byEvent[v] {
				e, ok := sh.m[key]
				if !ok {
					continue
				}
				contained := true
				for _, pv := range e.events {
					// events holds a trace's distinct ids, a handful: a
					// scan beats building a set per call.
					if !slices.Contains(events, pv) {
						contained = false
						break
					}
				}
				if contained {
					victims = append(victims, key)
				}
			}
		}
		// A contained entry is reachable from every one of its events, all of
		// which are in the given set, so it can appear in victims once per
		// event; the second lookup fails after the first delete.
		for _, key := range victims {
			if e, ok := sh.m[key]; ok {
				sh.unlink(key, e.events)
				delete(sh.m, key)
				sh.inval.Add(1)
				dropped++
			}
		}
		sh.mu.Unlock()
	}
	return dropped
}

// appendSignature renders a canonical byte string for the pattern structure
// + events into dst, suitable as a cache key.
func appendSignature(dst []byte, p *Pattern) []byte {
	switch p.op {
	case OpEvent:
		return appendInt(dst, int(p.event))
	case OpSeq:
		dst = append(dst, 'S', '(')
	default:
		dst = append(dst, 'A', '(')
	}
	for _, s := range p.subs {
		dst = appendSignature(dst, s)
		dst = append(dst, ',')
	}
	return append(dst, ')')
}

func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}
