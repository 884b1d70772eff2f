package discovery

import (
	"math/rand"
	"testing"
	"testing/quick"

	"eventmatch/internal/event"
	"eventmatch/internal/gen"
)

func TestDiscoverSeq(t *testing.T) {
	// A B C occurs contiguously in every trace: expect a SEQ(A,B,C)-ish
	// pattern covering {A,B,C}.
	l := event.FromStrings(
		"A B C X",
		"Y A B C",
		"A B C",
		"Z A B C Z2",
	)
	ps, err := Discover(l, Options{MinSupport: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) == 0 {
		t.Fatal("no patterns mined")
	}
	top := ps[0]
	if top.Size() != 3 || top.Orders() != 1 {
		t.Errorf("top pattern = %s (size %d orders %d), want SEQ of 3",
			top.String(l.Alphabet), top.Size(), top.Orders())
	}
	if f := top.Frequency(l); f != 1.0 {
		t.Errorf("top pattern frequency = %v", f)
	}
}

func TestDiscoverAnd(t *testing.T) {
	// B and C occur in both orders between A and D: expect an AND covering
	// {B,C} (possibly inside a larger mined pattern).
	l := event.FromStrings(
		"A B C D",
		"A C B D",
		"A B C D",
		"A C B D",
	)
	ps, err := Discover(l, Options{MinSupport: 0.45, MaxLen: 2, MaxPatterns: 10})
	if err != nil {
		t.Fatal(err)
	}
	foundAnd := false
	for _, p := range ps {
		if p.Orders() > 1 { // of at most two events, only an AND has two orders
			foundAnd = true
			if f := p.Frequency(l); f < 0.9 {
				t.Errorf("AND pattern %s frequency = %v", p.String(l.Alphabet), f)
			}
		}
	}
	if !foundAnd {
		for _, p := range ps {
			t.Logf("mined: %s", p.String(l.Alphabet))
		}
		t.Error("no AND pattern mined from permutation family")
	}
}

func TestDiscoverRespectsMaxPatterns(t *testing.T) {
	g := gen.RealLike(3, 400)
	ps, err := Discover(g.L1, Options{MinSupport: 0.3, MaxPatterns: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) > 3 {
		t.Errorf("got %d patterns, cap 3", len(ps))
	}
}

func TestDiscoverEmptyLog(t *testing.T) {
	ps, err := Discover(event.NewLog(), Options{})
	if err != nil || ps != nil {
		t.Errorf("ps=%v err=%v", ps, err)
	}
}

func TestDiscoverBadSupport(t *testing.T) {
	l := event.FromStrings("A B")
	if _, err := Discover(l, Options{MinSupport: 2}); err == nil {
		t.Error("support > 1 must fail")
	}
	if _, err := Discover(l, Options{MinSupport: -0.5}); err == nil {
		t.Error("negative support must fail")
	}
}

func TestDiscoverSubsumption(t *testing.T) {
	// With ABC fully frequent, the 2-gram AB should be subsumed.
	l := event.FromStrings("A B C", "A B C", "A B C")
	ps, err := Discover(l, Options{MinSupport: 0.9, MaxLen: 3, MaxPatterns: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if p.Size() == 2 {
			evs := p.Events()
			t.Errorf("2-gram %v should be subsumed by the 3-gram", evs)
		}
	}
}

// Property: every mined pattern meets the support threshold and uses
// distinct events.
func TestDiscoverSupportProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := event.NewLog()
		n := 3 + rng.Intn(4)
		for i := 0; i < n; i++ {
			l.Alphabet.Intern(string(rune('A' + i)))
		}
		for i := 0; i < 10+rng.Intn(30); i++ {
			tr := make(event.Trace, 2+rng.Intn(8))
			for j := range tr {
				tr[j] = event.ID(rng.Intn(n))
			}
			l.Append(tr)
		}
		minSup := 0.3
		ps, err := Discover(l, Options{MinSupport: minSup, MaxLen: 3, MaxPatterns: 30})
		if err != nil {
			return false
		}
		for _, p := range ps {
			if p.Frequency(l) < minSup-1e-9 {
				return false
			}
			seen := map[event.ID]bool{}
			for _, v := range p.Events() {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDiscoveredPatternsHelpMatching(t *testing.T) {
	// End-to-end: discover patterns on L1 of the real-like workload and make
	// sure they bind and occur — the example application depends on this.
	g := gen.RealLike(7, 800)
	ps, err := Discover(g.L1, Options{MinSupport: 0.35, MaxLen: 4, MaxPatterns: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) == 0 {
		t.Fatal("nothing mined from the ERP workload")
	}
	for _, p := range ps {
		if f := p.Frequency(g.L1); f < 0.35 {
			t.Errorf("%s: frequency %v below support", p.String(g.L1.Alphabet), f)
		}
	}
}
