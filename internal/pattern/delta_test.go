package pattern

import (
	"fmt"
	"math/rand"
	"testing"

	"eventmatch/internal/event"
	"eventmatch/internal/telemetry"
)

// randomTrace draws a trace over the first `pool` names, occasionally
// reaching one name past the pool so the alphabet grows mid-stream.
func randomTrace(rng *rand.Rand, pool int) []string {
	n := 1 + rng.Intn(6)
	names := make([]string, n)
	for i := range names {
		id := rng.Intn(pool)
		if rng.Intn(10) == 0 {
			id = pool // first use interns a fresh event id
		}
		names[i] = fmt.Sprintf("e%d", id)
	}
	return names
}

// randomPatterns builds patterns over distinct ids drawn from [0, pool).
func randomPatterns(rng *rand.Rand, pool, count int) []*Pattern {
	pats := make([]*Pattern, 0, count)
	for len(pats) < count {
		k := 2 + rng.Intn(3)
		perm := rng.Perm(pool)[:k]
		subs := make([]*Pattern, k)
		for i, id := range perm {
			subs[i] = Single(event.ID(id))
		}
		var p *Pattern
		var err error
		if rng.Intn(2) == 0 {
			p, err = Seq(subs...)
		} else {
			p, err = And(subs...)
		}
		if err != nil {
			continue
		}
		pats = append(pats, p)
	}
	return pats
}

// The streaming differential property: for random event streams, after every
// append the incremental TraceIndex/FrequencyCache state is bit-identical to
// a from-scratch rebuild — event count, bitset words, candidate sets,
// frequencies, and the pattern.index_skips telemetry all agree.
func TestStreamDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			l := event.NewLog()
			ix := NewTraceIndex(l) // starts empty; grown by Apply
			cache := NewFrequencyCache(ix)
			engInc := cache.Engine()

			const pool = 8
			pats := randomPatterns(rng, pool, 8)

			// 140 appends crosses the 64-trace and 128-trace bitset
			// word boundaries, exercising the re-layout path twice.
			for step := 0; step < 140; step++ {
				d := l.AppendNamesDelta(randomTrace(rng, pool)...)
				ix.Apply(d)
				cache.Invalidate(d.Events)

				rebuilt := NewTraceIndex(l)
				if ix.nEvents != rebuilt.nEvents || ix.nEvents != l.NumEvents() {
					t.Fatalf("step %d: %d events, rebuild %d, log %d", step, ix.nEvents, rebuilt.nEvents, l.NumEvents())
				}
				if ix.nw != rebuilt.nw {
					t.Fatalf("step %d: nw = %d, rebuild %d", step, ix.nw, rebuilt.nw)
				}
				if len(ix.words) != len(rebuilt.words) {
					t.Fatalf("step %d: %d bitset words, rebuild %d", step, len(ix.words), len(rebuilt.words))
				}
				for w := range ix.words {
					if ix.words[w] != rebuilt.words[w] {
						t.Fatalf("step %d: bitset word %d = %#x, rebuild %#x", step, w, ix.words[w], rebuilt.words[w])
					}
				}

				// Candidates and index_skips: one pass over the pattern set on
				// each engine under a fresh per-step registry; the counts and
				// values must agree exactly.
				regInc, regReb := telemetry.NewRegistry(), telemetry.NewRegistry()
				engInc.SetTelemetry(regInc)
				engReb := NewEngine(rebuilt, 1)
				engReb.SetTelemetry(regReb)
				for pi, p := range pats {
					ci := ix.Candidates(p.Events())
					cr := rebuilt.Candidates(p.Events())
					ref := CandidatesReference(l, p.Events())
					if len(ci) != len(cr) || len(ci) != len(ref) {
						t.Fatalf("step %d pattern %d: candidates %v, rebuild %v, reference %v", step, pi, ci, cr, ref)
					}
					for i := range ci {
						if ci[i] != cr[i] || ci[i] != ref[i] {
							t.Fatalf("step %d pattern %d: candidates %v, rebuild %v, reference %v", step, pi, ci, cr, ref)
						}
					}
					fi, fr := engInc.Frequency(p), engReb.Frequency(p)
					if fi != fr {
						t.Fatalf("step %d pattern %d: incremental f = %v, rebuild %v", step, pi, fi, fr)
					}
				}
				snapInc, snapReb := regInc.Snapshot(), regReb.Snapshot()
				si := snapInc.Counter("pattern.index_skips")
				sr := snapReb.Counter("pattern.index_skips")
				if si != sr {
					t.Fatalf("step %d: index_skips = %d, rebuild %d", step, si, sr)
				}

				// Cache parity: the first call may miss, the second must hit
				// the memoized count and re-normalize it; both must equal the
				// reference frequency bit for bit.
				for pi, p := range pats {
					want := p.Frequency(l)
					if got := cache.Frequency(p); got != want {
						t.Fatalf("step %d pattern %d: cache f = %v, want %v", step, pi, got, want)
					}
					if got := cache.Frequency(p); got != want {
						t.Fatalf("step %d pattern %d: cached-hit f = %v, want %v", step, pi, got, want)
					}
				}
			}
		})
	}
}

// PatternIndex.Add must be indistinguishable from a from-scratch
// NewPatternIndex after every append.
func TestPatternIndexAddDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pats := randomPatterns(rng, 10, 20)
	inc := NewPatternIndex(nil)
	for n := 1; n <= len(pats); n++ {
		inc.Add(pats[n-1])
		rebuilt := NewPatternIndex(pats[:n])
		if len(inc.byEvent) != len(rebuilt.byEvent) {
			t.Fatalf("after %d adds: %d postings, rebuild %d", n, len(inc.byEvent), len(rebuilt.byEvent))
		}
		for v := range inc.byEvent {
			a, b := inc.byEvent[v], rebuilt.byEvent[v]
			if len(a) != len(b) {
				t.Fatalf("after %d adds: event %d posting len %d, rebuild %d", n, v, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("after %d adds: event %d posting[%d] = %d, rebuild %d", n, v, i, a[i], b[i])
				}
			}
		}
		for v := 0; v < len(inc.byEvent); v++ {
			if inc.Degree(event.ID(v)) != rebuilt.Degree(event.ID(v)) {
				t.Fatalf("after %d adds: degree(%d) mismatch", n, v)
			}
		}
	}
}

// Invalidation must be targeted: an appended trace drops exactly the entries
// whose event sets it covers, leaving disjoint entries memoized.
func TestFrequencyCacheInvalidateTargeted(t *testing.T) {
	l := event.FromStrings(
		"A B C",
		"A B D",
		"C D",
	)
	a, b := l.Alphabet.Lookup("A"), l.Alphabet.Lookup("B")
	c, d := l.Alphabet.Lookup("C"), l.Alphabet.Lookup("D")
	ix := NewTraceIndex(l)
	cache := NewFrequencyCache(ix)
	pAB := MustSeq(Single(a), Single(b))
	pCD := MustSeq(Single(c), Single(d))
	cache.Frequency(pAB)
	cache.Frequency(pCD)
	if h, m := cache.Stats(); h != 0 || m != 2 {
		t.Fatalf("warmup hits/misses = %d/%d, want 0/2", h, m)
	}

	// "C D" covers pCD's events but not pAB's: exactly one entry drops.
	delta := l.AppendNamesDelta("C", "D")
	ix.Apply(delta)
	if n := cache.Invalidate(delta.Events); n != 1 {
		t.Fatalf("Invalidate dropped %d entries, want 1", n)
	}
	if got, want := cache.Frequency(pAB), pAB.Frequency(l); got != want {
		t.Fatalf("f(AB) = %v, want %v", got, want)
	}
	if h, m := cache.Stats(); h != 1 || m != 2 {
		t.Fatalf("after disjoint append hits/misses = %d/%d, want 1/2 (AB entry must survive)", h, m)
	}
	if got, want := cache.Frequency(pCD), pCD.Frequency(l); got != want {
		t.Fatalf("f(CD) = %v, want %v", got, want)
	}
	if h, m := cache.Stats(); h != 1 || m != 3 {
		t.Fatalf("after re-evaluating CD hits/misses = %d/%d, want 1/3 (CD entry must have dropped)", h, m)
	}
	if cache.Invalidations() != 1 {
		t.Fatalf("Invalidations = %d, want 1", cache.Invalidations())
	}
}
