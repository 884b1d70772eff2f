package pattern

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"eventmatch/internal/event"
	"eventmatch/internal/telemetry"
)

func TestPatternIndex(t *testing.T) {
	a := event.NewAlphabet("A", "B", "C", "D")
	ps := []*Pattern{
		must(ParseBind("SEQ(A,B)", a)),
		must(ParseBind("SEQ(B,C)", a)),
		must(ParseBind("SEQ(A,AND(B,C),D)", a)),
	}
	ix := NewPatternIndex(ps)
	if got := ix.Containing(a.Lookup("B")); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("Containing(B) = %v", got)
	}
	if got := ix.Containing(a.Lookup("D")); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("Containing(D) = %v", got)
	}
	if ix.Degree(a.Lookup("B")) != 3 || ix.Degree(a.Lookup("D")) != 1 {
		t.Error("Degree wrong")
	}
	if len(ix.patterns) != 3 {
		t.Error("indexed pattern count wrong")
	}
}

func TestTraceIndex(t *testing.T) {
	l := event.FromStrings("A B C", "B C", "A C", "C")
	ix := NewTraceIndex(l)
	a := l.Alphabet
	A, C := a.Lookup("A"), a.Lookup("C")
	if got := ix.Candidates([]event.ID{A}); !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Errorf("Candidates(A) = %v", got)
	}
	if got := ix.Candidates([]event.ID{C}); !reflect.DeepEqual(got, []int32{0, 1, 2, 3}) {
		t.Errorf("Candidates(C) = %v", got)
	}
	if got := ix.Bits(A); !reflect.DeepEqual(got, []uint64{0b0101}) {
		t.Errorf("Bits(A) = %#b", got)
	}
	if got := ix.Bits(C); !reflect.DeepEqual(got, []uint64{0b1111}) {
		t.Errorf("Bits(C) = %#b", got)
	}
	if got := ix.Bits(99); got != nil {
		t.Errorf("Bits(out-of-range) = %v, want nil", got)
	}
	if got := ix.Candidates([]event.ID{99}); got != nil {
		t.Errorf("Candidates(out-of-range) = %v, want nil", got)
	}
}

func TestTraceIndexDuplicatesInTrace(t *testing.T) {
	l := event.FromStrings("A A A")
	ix := NewTraceIndex(l)
	if got := ix.Candidates([]event.ID{0}); !reflect.DeepEqual(got, []int32{0}) {
		t.Errorf("Candidates(A) = %v, want [0] once", got)
	}
	if got := ix.Bits(0); !reflect.DeepEqual(got, []uint64{1}) {
		t.Errorf("Bits(A) = %#b, want 0b1", got)
	}
}

func TestCandidates(t *testing.T) {
	l := event.FromStrings("A B C", "B C", "A C", "C", "A B")
	ix := NewTraceIndex(l)
	a := l.Alphabet
	got := ix.Candidates([]event.ID{a.Lookup("A"), a.Lookup("B")})
	if !reflect.DeepEqual(got, []int32{0, 4}) {
		t.Errorf("Candidates(A,B) = %v, want [0 4]", got)
	}
	got = ix.Candidates([]event.ID{a.Lookup("A"), a.Lookup("B"), a.Lookup("C")})
	if !reflect.DeepEqual(got, []int32{0}) {
		t.Errorf("Candidates(A,B,C) = %v, want [0]", got)
	}
	if got := ix.Candidates(nil); got != nil {
		t.Errorf("Candidates(nil) = %v", got)
	}
	if got := ix.Candidates([]event.ID{99}); got != nil {
		t.Errorf("Candidates(unknown) = %v", got)
	}
}

func TestIndexedFrequencyMatchesDirect(t *testing.T) {
	l := event.FromStrings("A B C D", "A C B D", "A B D C", "D C B A", "B A C D")
	ix := NewTraceIndex(l)
	for _, src := range []string{"A", "SEQ(A,B)", "AND(B,C)", "SEQ(A,AND(B,C),D)"} {
		p := must(ParseBind(src, l.Alphabet))
		if got, want := NewEngine(ix, 1).Frequency(p), p.Frequency(l); got != want {
			t.Errorf("%s: indexed %v != direct %v", src, got, want)
		}
	}
}

func TestFrequencyCache(t *testing.T) {
	l := event.FromStrings("A B", "B A", "A B")
	ix := NewTraceIndex(l)
	c := NewFrequencyCache(ix)
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)
	p := must(ParseBind("SEQ(A,B)", l.Alphabet))
	f1 := c.Frequency(p)
	f2 := c.Frequency(p)
	if f1 != f2 {
		t.Errorf("cache changed answer: %v vs %v", f1, f2)
	}
	if math.Abs(f1-2.0/3.0) > 1e-12 {
		t.Errorf("f = %v, want 2/3", f1)
	}
	hits, misses, _ := CacheCounts(reg)
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	// A structurally different pattern over the same events is a different key.
	p2 := must(ParseBind("AND(A,B)", l.Alphabet))
	if f := c.Frequency(p2); f != 1.0 {
		t.Errorf("AND(A,B) freq = %v, want 1.0", f)
	}
}

func TestSignatureDistinguishesStructure(t *testing.T) {
	a := event.NewAlphabet("A", "B", "C")
	p1 := must(ParseBind("SEQ(A,B,C)", a))
	p2 := must(ParseBind("SEQ(SEQ(A,B),C)", a))
	p3 := must(ParseBind("AND(A,B,C)", a))
	signature := func(p *Pattern) string { return string(appendSignature(nil, p)) }
	s1, s2, s3 := signature(p1), signature(p2), signature(p3)
	if s1 == s3 {
		t.Error("SEQ vs AND must differ")
	}
	_ = s2 // nested SEQ may or may not normalize; only require determinism:
	if signature(p2) != s2 {
		t.Error("signature must be deterministic")
	}
}

// Property: indexed frequency equals the naive full-scan frequency for random
// logs and random patterns.
func TestIndexedFrequencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := event.NewLog()
		n := 3 + rng.Intn(4)
		for i := 0; i < n; i++ {
			l.Alphabet.Intern(string(rune('A' + i)))
		}
		for i := 0; i < 1+rng.Intn(25); i++ {
			tr := make(event.Trace, 1+rng.Intn(8))
			for j := range tr {
				tr[j] = event.ID(rng.Intn(n))
			}
			l.Append(tr)
		}
		ix := NewTraceIndex(l)
		pool := make([]event.ID, n)
		for i := range pool {
			pool[i] = event.ID(i)
		}
		p := randomPattern(rng, pool, 1)
		return NewEngine(ix, 1).Frequency(p) == p.Frequency(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestAppendInt(t *testing.T) {
	cases := map[int]string{0: "0", 7: "7", 42: "42", 1234567: "1234567", -3: "-3"}
	for v, want := range cases {
		if got := string(appendInt(nil, v)); got != want {
			t.Errorf("appendInt(%d) = %q, want %q", v, got, want)
		}
	}
}

func TestTraceIndexLogAccessor(t *testing.T) {
	l := event.FromStrings("A")
	ix := NewTraceIndex(l)
	if ix.Log() != l {
		t.Error("Log() must return the indexed log")
	}
}
