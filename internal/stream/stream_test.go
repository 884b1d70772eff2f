package stream

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"eventmatch/internal/event"
	"eventmatch/internal/gen"
	"eventmatch/internal/pattern"
)

func mustBind(t *testing.T, src string, a *event.Alphabet) *pattern.Pattern {
	t.Helper()
	p, err := pattern.ParseBind(src, a)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewDetectorValidation(t *testing.T) {
	if _, err := NewDetector(nil); err == nil {
		t.Error("empty pattern list must fail")
	}
	if _, err := NewDetector([]*pattern.Pattern{nil}); err == nil {
		t.Error("nil pattern must fail")
	}
}

func TestObserveDetectsSeq(t *testing.T) {
	a := event.NewAlphabet("A", "B", "C")
	d, err := NewDetector([]*pattern.Pattern{mustBind(t, "SEQ(A,B)", a)})
	if err != nil {
		t.Fatal(err)
	}
	if occ := d.Observe(a.Lookup("A")); occ != nil {
		t.Errorf("premature occurrence: %v", occ)
	}
	occ := d.Observe(a.Lookup("B"))
	want := []Occurrence{{Pattern: 0, Start: 0, End: 1}}
	if !reflect.DeepEqual(occ, want) {
		t.Errorf("occ = %v, want %v", occ, want)
	}
	// C breaks adjacency; then A B matches again at the right position.
	d.Observe(a.Lookup("C"))
	d.Observe(a.Lookup("A"))
	occ = d.Observe(a.Lookup("B"))
	want = []Occurrence{{Pattern: 0, Start: 3, End: 4}}
	if !reflect.DeepEqual(occ, want) {
		t.Errorf("occ = %v, want %v", occ, want)
	}
}

func TestObserveDetectsAndAnyOrder(t *testing.T) {
	a := event.NewAlphabet("A", "B", "C", "D")
	d, err := NewDetector([]*pattern.Pattern{mustBind(t, "SEQ(A,AND(B,C),D)", a)})
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range [][]string{{"A", "B", "C", "D"}, {"A", "C", "B", "D"}} {
		d.Reset()
		var all []Occurrence
		for _, name := range seq {
			all = append(all, d.Observe(a.Lookup(name))...)
		}
		if len(all) != 1 {
			t.Errorf("%v: occurrences = %v, want 1", seq, all)
		}
	}
	// A B D C is not an allowed order.
	d.Reset()
	var all []Occurrence
	for _, name := range []string{"A", "B", "D", "C"} {
		all = append(all, d.Observe(a.Lookup(name))...)
	}
	if len(all) != 0 {
		t.Errorf("ABDC matched: %v", all)
	}
}

func TestMultiplePatterns(t *testing.T) {
	a := event.NewAlphabet("A", "B", "C")
	d, err := NewDetector([]*pattern.Pattern{
		mustBind(t, "SEQ(A,B)", a),
		mustBind(t, "SEQ(B,C)", a),
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []Occurrence
	for _, name := range []string{"A", "B", "C"} {
		all = append(all, d.Observe(a.Lookup(name))...)
	}
	if len(all) != 2 {
		t.Fatalf("occurrences = %v", all)
	}
	if !d.matched[0] || !d.matched[1] {
		t.Error("matched flags wrong")
	}
	d.Reset()
	if d.matched[0] || d.pos != 0 || len(d.buf) != 0 {
		t.Error("Reset incomplete")
	}
}

func TestFrequenciesMatchBatch(t *testing.T) {
	g := gen.RealLike(5, 600)
	var ps []*pattern.Pattern
	for _, src := range g.Patterns {
		ps = append(ps, mustBind(t, src, g.L1.Alphabet))
	}
	d, err := NewDetector(ps)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Frequencies(g.L1)
	for i, p := range ps {
		want := p.Frequency(g.L1)
		if got[i] != want {
			t.Errorf("pattern %d: streaming %v != batch %v", i, got[i], want)
		}
	}
}

func TestFrequenciesEmptyLog(t *testing.T) {
	a := event.NewAlphabet("A")
	d, err := NewDetector([]*pattern.Pattern{pattern.Single(a.Lookup("A"))})
	if err != nil {
		t.Fatal(err)
	}
	if f := d.Frequencies(event.NewLog()); f[0] != 0 {
		t.Errorf("empty log frequency = %v", f)
	}
}

// Property: streaming frequencies equal batch frequencies on random logs
// and random patterns.
func TestStreamingEqualsBatchProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := event.NewLog()
		n := 3 + rng.Intn(4)
		for i := 0; i < n; i++ {
			l.Alphabet.Intern(string(rune('A' + i)))
		}
		for i := 0; i < 5+rng.Intn(25); i++ {
			tr := make(event.Trace, 1+rng.Intn(10))
			for j := range tr {
				tr[j] = event.ID(rng.Intn(n))
			}
			l.Append(tr)
		}
		subs := []*pattern.Pattern{pattern.Single(0), pattern.Single(1), pattern.Single(2)}
		ps := []*pattern.Pattern{
			pattern.MustSeq(subs[0], subs[1]),
			pattern.MustAnd(pattern.Single(1), pattern.Single(2)),
			pattern.MustSeq(pattern.Single(0), pattern.MustAnd(pattern.Single(1), pattern.Single(2))),
		}
		d, err := NewDetector(ps)
		if err != nil {
			return false
		}
		got := d.Frequencies(l)
		for i, p := range ps {
			if got[i] != p.Frequency(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: occurrence windows reported by Observe actually match the
// pattern when sliced out of the stream.
func TestOccurrenceWindowsValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := event.NewAlphabet("A", "B", "C", "D")
		p := pattern.MustSeq(pattern.Single(0), pattern.MustAnd(pattern.Single(1), pattern.Single(2)))
		d, err := NewDetector([]*pattern.Pattern{p})
		if err != nil {
			return false
		}
		_ = a
		var stream event.Trace
		for i := 0; i < 60; i++ {
			e := event.ID(rng.Intn(4))
			stream = append(stream, e)
			for _, occ := range d.Observe(e) {
				if occ.End != len(stream)-1 || occ.End-occ.Start+1 != p.Size() {
					return false
				}
				if !p.MatchesWindow(stream[occ.Start : occ.End+1]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
