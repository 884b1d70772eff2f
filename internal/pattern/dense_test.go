// Differential tests for the dense-ID frequency kernel: the bitset path
// must agree bit-for-bit with the pre-bitset reference path kept as the
// test oracle (reference_test.go) on every input, and the index-only skip must fire without
// scanning a single trace.
package pattern

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"eventmatch/internal/event"
	"eventmatch/internal/telemetry"
)

// randomLog builds a log with n events and the given number of random
// traces (the >64 regime exercises multi-word bitsets).
func randomLog(rng *rand.Rand, n, traces, maxLen int) *event.Log {
	l := event.NewLog()
	for i := 0; i < n; i++ {
		l.Alphabet.Intern(string(rune('A' + i)))
	}
	for i := 0; i < traces; i++ {
		tr := make(event.Trace, 1+rng.Intn(maxLen))
		for j := range tr {
			tr[j] = event.ID(rng.Intn(n))
		}
		l.Append(tr)
	}
	return l
}

// Property: on randomized logs and patterns, the dense kernel's match
// counts equal the reference (map + posting-list-merge) path's, at every
// worker count — the tentpole's bit-identical guarantee.
func TestDenseMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// 70..130 traces: half the instances span multiple bitset words.
		l := randomLog(rng, 3+rng.Intn(5), 70+rng.Intn(61), 8)
		ix := NewTraceIndex(l)
		pool := make([]event.ID, l.NumEvents())
		for i := range pool {
			pool[i] = event.ID(i)
		}
		for trial := 0; trial < 4; trial++ {
			p := randomPattern(rng, pool, 1)
			ref := NewReferencePattern(p)
			want := FrequencyReference(l, ref)
			if p.Frequency(l) != want {
				t.Logf("seed %d: Pattern.Frequency != reference", seed)
				return false
			}
			for _, w := range []int{1, 3, 8} {
				if got := NewEngine(ix, w).Frequency(p); got != want {
					t.Logf("seed %d workers %d: %v != %v", seed, w, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: bitset candidate intersection equals the posting-list merge on
// randomized event subsets.
func TestCandidatesMatchReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		l := randomLog(rng, n, 50+rng.Intn(120), 6)
		ix := NewTraceIndex(l)
		for trial := 0; trial < 8; trial++ {
			k := 1 + rng.Intn(n)
			events := make([]event.ID, 0, k)
			for _, pi := range rng.Perm(n)[:k] {
				events = append(events, event.ID(pi))
			}
			got, want := ix.Candidates(events), CandidatesReference(l, events)
			if len(got) != len(want) {
				t.Logf("seed %d: len %d != %d", seed, len(got), len(want))
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					t.Logf("seed %d: got[%d]=%d want %d", seed, i, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The bitset intersection must be exact across word boundaries: a log with
// >64 traces puts candidates in the second and third words.
func TestCandidatesMultiWord(t *testing.T) {
	l := event.NewLog()
	a := l.Alphabet.Intern("A")
	b := l.Alphabet.Intern("B")
	c := l.Alphabet.Intern("C")
	// 200 traces: A in all, B in every 3rd, C in every 5th. A∩B∩C = every
	// 15th — trace indices spanning all four bitset words.
	var want []int32
	for i := 0; i < 200; i++ {
		tr := event.Trace{a}
		if i%3 == 0 {
			tr = append(tr, b)
		}
		if i%5 == 0 {
			tr = append(tr, c)
		}
		l.Append(tr)
		if i%15 == 0 {
			want = append(want, int32(i))
		}
	}
	ix := NewTraceIndex(l)
	got := ix.Candidates([]event.ID{a, b, c})
	if len(got) != len(want) {
		t.Fatalf("got %d candidates, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("candidate %d = %d, want %d", i, got[i], want[i])
		}
	}
	// Each event's bitset must hold exactly the traces a scan of the log
	// finds it in.
	for _, v := range []event.ID{a, b, c} {
		got, want := appendSetBits(nil, ix.Bits(v)), postingList(l, v)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("event %d: bitset traces %v, log scan %v", v, got, want)
		}
	}
}

// An empty ∩It(v) must resolve index-only: pattern.index_skips increments
// and no trace is ever scanned.
func TestIndexOnlySkip(t *testing.T) {
	l := event.FromStrings(
		"A B",
		"C D",
		"A D",
	)
	ix := NewTraceIndex(l)
	// B and C never co-occur, so SEQ(B,C)'s candidate intersection is empty.
	p := MustSeq(Single(l.Alphabet.Lookup("B")), Single(l.Alphabet.Lookup("C")))

	eng := NewEngine(ix, 1)
	reg := telemetry.NewRegistry()
	eng.SetTelemetry(reg)
	if f := eng.Frequency(p); f != 0 {
		t.Fatalf("f = %v, want 0", f)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("pattern.index_skips"); got != 1 {
		t.Errorf("pattern.index_skips = %d, want 1", got)
	}
	if got := snap.Counter("engine.traces_scanned"); got != 0 {
		t.Errorf("engine.traces_scanned = %d, want 0 (index-only path must not scan)", got)
	}

}

// AND with more than 64 sub-patterns must fall back to the slice-based
// consumed-block bookkeeping and still match correctly.
func TestAndFallbackOver64Subs(t *testing.T) {
	const n = 70
	l := event.NewLog()
	ids := make([]event.ID, n)
	subs := make([]*Pattern, n)
	for i := 0; i < n; i++ {
		ids[i] = l.Alphabet.Intern(string(rune('a'+i%26)) + string(rune('0'+i/26)))
		subs[i] = Single(ids[i])
	}
	p := MustAnd(subs...)

	// A trace holding the events in reverse order matches (AND accepts any
	// block order); one with a foreign gap does not.
	rev := make(event.Trace, n)
	for i := range rev {
		rev[i] = ids[n-1-i]
	}
	l.Append(rev)
	if !p.MatchesTrace(rev) {
		t.Error("reverse-order trace must match AND of all events")
	}
	half := append(event.Trace{}, rev[:n/2]...)
	if p.MatchesTrace(half) {
		t.Error("half trace must not match")
	}
}
