package pattern

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"eventmatch/internal/depgraph"
	"eventmatch/internal/event"
)

// abcd returns an alphabet A..H and single-event patterns for convenience.
func abcd() (*event.Alphabet, map[string]*Pattern) {
	a := event.NewAlphabet("A", "B", "C", "D", "E", "F", "G", "H")
	singles := make(map[string]*Pattern)
	for _, n := range a.Names() {
		singles[n] = Single(a.Lookup(n))
	}
	return a, singles
}

func TestSingle(t *testing.T) {
	p := Single(3)
	if p.op != OpEvent || p.Size() != 1 {
		t.Fatalf("Single: op=%v size=%d", p.op, p.Size())
	}
	if !p.events.Has(3) || p.events.Has(2) {
		t.Error("event set wrong")
	}
	if p.Orders() != 1 {
		t.Errorf("Orders = %d, want 1", p.Orders())
	}
}

func TestComposeRejectsDuplicates(t *testing.T) {
	if _, err := Seq(Single(0), Single(0)); err == nil {
		t.Error("Seq with duplicate event must fail")
	}
	if _, err := And(Single(1), MustSeq(Single(2), Single(1))); err == nil {
		t.Error("And with nested duplicate event must fail")
	}
}

func TestComposeEmpty(t *testing.T) {
	if _, err := Seq(); err == nil {
		t.Error("empty Seq must fail")
	}
	if _, err := And(); err == nil {
		t.Error("empty And must fail")
	}
}

func TestComposeSingleCollapses(t *testing.T) {
	s := Single(0)
	p, err := Seq(s)
	if err != nil || p != s {
		t.Error("one-element Seq should collapse to the sub-pattern")
	}
}

func TestPaperExample4Graph(t *testing.T) {
	// p1 = SEQ(A, AND(B,C), D) must translate to vertices {A,B,C,D} and
	// edges {AB, AC, BC, CB, BD, CD} — the paper's Example 4.
	a, s := abcd()
	p := MustSeq(s["A"], MustAnd(s["B"], s["C"]), s["D"])
	verts, edges := p.Graph()
	if len(verts) != 4 {
		t.Fatalf("vertices = %v", verts)
	}
	A, B, C, D := a.Lookup("A"), a.Lookup("B"), a.Lookup("C"), a.Lookup("D")
	want := []depgraph.Edge{
		{From: A, To: B}, {From: A, To: C},
		{From: B, To: C}, {From: B, To: D},
		{From: C, To: B}, {From: C, To: D},
	}
	if !reflect.DeepEqual(edges, want) {
		t.Errorf("edges = %v, want %v", edges, want)
	}
}

func TestSeqGraphChain(t *testing.T) {
	_, s := abcd()
	p := MustSeq(s["A"], s["B"], s["C"])
	_, edges := p.Graph()
	want := []depgraph.Edge{{From: 0, To: 1}, {From: 1, To: 2}}
	if !reflect.DeepEqual(edges, want) {
		t.Errorf("edges = %v, want %v", edges, want)
	}
}

func TestAndGraphComplete(t *testing.T) {
	// AND(A,B,C) yields a complete directed graph on 3 vertices: 6 edges.
	_, s := abcd()
	p := MustAnd(s["A"], s["B"], s["C"])
	_, edges := p.Graph()
	if len(edges) != 6 {
		t.Errorf("AND(A,B,C) edges = %v, want 6 edges", edges)
	}
}

func TestOrders(t *testing.T) {
	_, s := abcd()
	cases := []struct {
		p    *Pattern
		want int64
	}{
		{s["A"], 1},
		{MustSeq(s["A"], s["B"], s["C"]), 1},
		{MustAnd(s["A"], s["B"]), 2},
		{MustAnd(s["A"], s["B"], s["C"]), 6},
		{MustSeq(s["A"], MustAnd(s["B"], s["C"]), s["D"]), 2},
		{MustAnd(MustSeq(s["A"], s["B"]), MustAnd(s["C"], s["D"])), 4}, // 2! * (1 * 2!)
	}
	for _, c := range cases {
		if got := c.p.Orders(); got != c.want {
			t.Errorf("Orders(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestOrdersSaturates(t *testing.T) {
	// AND over 25 singles: 25! overflows int64; must saturate, not wrap.
	subs := make([]*Pattern, 25)
	for i := range subs {
		subs[i] = Single(event.ID(i))
	}
	p := must(And(subs...))
	if got := p.Orders(); got != math.MaxInt64 {
		t.Errorf("Orders = %d, want MaxInt64 saturation", got)
	}
}

// MatchesWindow reports whether the window w is one of the orderings in
// I(p); a window of another length never matches.
func (p *Pattern) MatchesWindow(w []event.ID) bool {
	return len(w) == p.size && p.matchExact(w)
}

func TestMatchesWindowSeq(t *testing.T) {
	_, s := abcd()
	p := MustSeq(s["A"], s["B"], s["C"])
	if !p.MatchesWindow([]event.ID{0, 1, 2}) {
		t.Error("ABC should match SEQ(A,B,C)")
	}
	if p.MatchesWindow([]event.ID{0, 2, 1}) {
		t.Error("ACB should not match SEQ(A,B,C)")
	}
	if p.MatchesWindow([]event.ID{0, 1}) {
		t.Error("short window should not match")
	}
}

func TestMatchesWindowPaperPattern(t *testing.T) {
	_, s := abcd()
	p := MustSeq(s["A"], MustAnd(s["B"], s["C"]), s["D"])
	// I(p) = {ABCD, ACBD}
	if !p.MatchesWindow([]event.ID{0, 1, 2, 3}) {
		t.Error("ABCD should match")
	}
	if !p.MatchesWindow([]event.ID{0, 2, 1, 3}) {
		t.Error("ACBD should match")
	}
	for _, bad := range [][]event.ID{
		{1, 0, 2, 3}, // BACD
		{0, 1, 3, 2}, // ABDC
		{3, 2, 1, 0}, // DCBA
		{0, 0, 1, 3}, // duplicate A
	} {
		if p.MatchesWindow(bad) {
			t.Errorf("window %v should not match", bad)
		}
	}
}

func TestMatchesTrace(t *testing.T) {
	l := event.FromStrings("E A B C D F", "A C B D", "A B D C", "B C A D")
	a := l.Alphabet
	p, err := ParseBind("SEQ(A,AND(B,C),D)", a)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, false}
	for i, w := range want {
		if got := p.MatchesTrace(l.Traces[i]); got != w {
			t.Errorf("trace %d: match = %v, want %v", i, got, w)
		}
	}
}

func TestMatchesTraceNoForeignEvents(t *testing.T) {
	// The pattern instance must be contiguous: A X B does not match SEQ(A,B).
	l := event.FromStrings("A X B", "A B")
	p, err := ParseBind("SEQ(A,B)", l.Alphabet)
	if err != nil {
		t.Fatal(err)
	}
	if p.MatchesTrace(l.Traces[0]) {
		t.Error("interleaved foreign event should break the match")
	}
	if !p.MatchesTrace(l.Traces[1]) {
		t.Error("adjacent A B should match")
	}
}

func TestMatchesTraceOverlappingPrefix(t *testing.T) {
	// A window that starts inside a failed partial match must still be
	// tried: in "A B A C B D" the match ACBD starts at the second A.
	l := event.FromStrings("A B A C B D", "A A B", "A B A B D C")
	seq, err := ParseBind("SEQ(A,B)", l.Alphabet)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := ParseBind("SEQ(A,AND(B,C),D)", l.Alphabet)
	if err != nil {
		t.Fatal(err)
	}
	if !paper.MatchesTrace(l.Traces[0]) {
		t.Error("A B A C B D should match SEQ(A,AND(B,C),D)")
	}
	if !seq.MatchesTrace(l.Traces[1]) {
		t.Error("A A B should match SEQ(A,B)")
	}
	if paper.MatchesTrace(l.Traces[2]) {
		t.Error("A B A B D C has no window in I(SEQ(A,AND(B,C),D))")
	}
}

func TestFrequency(t *testing.T) {
	l := event.FromStrings("A B C D", "A C B D", "A B D C", "D C B A")
	p, err := ParseBind("SEQ(A,AND(B,C),D)", l.Alphabet)
	if err != nil {
		t.Fatal(err)
	}
	if f := p.Frequency(l); f != 0.5 {
		t.Errorf("Frequency = %v, want 0.5", f)
	}
	empty := event.NewLog()
	if f := Single(0).Frequency(empty); f != 0 {
		t.Errorf("empty log frequency = %v, want 0", f)
	}
}

func TestMap(t *testing.T) {
	a, s := abcd()
	p := MustSeq(s["A"], MustAnd(s["B"], s["C"]), s["D"])
	m := make([]event.ID, a.Len())
	for i := range m {
		m[i] = event.ID(i) + 10
	}
	mp, err := p.Map(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := mp.Events(); !reflect.DeepEqual(got, []event.ID{10, 11, 12, 13}) {
		t.Errorf("mapped events = %v", got)
	}
	if mp.Size() != p.Size() || mp.Orders() != p.Orders() {
		t.Error("Map must preserve structure")
	}
}

func TestMapUnmapped(t *testing.T) {
	_, s := abcd()
	p := MustSeq(s["A"], s["B"])
	m := []event.ID{5, -1, 0, 0, 0, 0, 0, 0}
	if _, err := p.Map(m); err == nil {
		t.Error("mapping with unmapped event must fail")
	}
}

// enumerateOrders expands I(p) into its explicit orderings, the reference the
// linear window matcher is checked against. Exponential in AND fan-out.
func enumerateOrders(p *Pattern) []event.Trace {
	switch p.op {
	case OpEvent:
		return []event.Trace{{p.event}}
	case OpSeq:
		return seqOrders(p.subs)
	}
	// An AND accepts its sub-patterns in every order, each as a sequence.
	subs := append([]*Pattern(nil), p.subs...)
	var out []event.Trace
	var permute func(k int)
	permute = func(k int) {
		if k == len(subs) {
			out = append(out, seqOrders(subs)...)
			return
		}
		for i := k; i < len(subs); i++ {
			subs[k], subs[i] = subs[i], subs[k]
			permute(k + 1)
			subs[k], subs[i] = subs[i], subs[k]
		}
	}
	permute(0)
	return out
}

// seqOrders returns the orderings of subs placed one after another.
func seqOrders(subs []*Pattern) []event.Trace {
	acc := []event.Trace{{}}
	for _, s := range subs {
		var next []event.Trace
		for _, prefix := range acc {
			for _, so := range enumerateOrders(s) {
				next = append(next, append(append(event.Trace(nil), prefix...), so...))
			}
		}
		acc = next
	}
	return acc
}

// Property: MatchesWindow(w) == (w ∈ enumerateOrders(p)) for random small
// patterns and random windows.
func TestWindowMatcherAgreesWithEnumerationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPattern(rng, []event.ID{0, 1, 2, 3, 4}, 2)
		orders := enumerateOrders(p)
		if int64(len(orders)) != p.Orders() {
			return false
		}
		allowed := map[string]bool{}
		for _, o := range orders {
			allowed[traceKey(o)] = true
		}
		// Every enumerated order must match.
		for _, o := range orders {
			if !p.MatchesWindow(o) {
				return false
			}
		}
		// Random permutations of the event set must match iff enumerated.
		evs := append([]event.ID(nil), p.Events()...)
		for trial := 0; trial < 20; trial++ {
			rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
			w := append([]event.ID(nil), evs...)
			if p.MatchesWindow(w) != allowed[traceKey(w)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a trace built by embedding an allowed order inside random noise
// always matches (noise outside the window cannot break a match).
func TestEmbeddedOrderMatchesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPattern(rng, []event.ID{0, 1, 2, 3}, 2)
		orders := enumerateOrders(p)
		o := orders[rng.Intn(len(orders))]
		noise := func(n int) event.Trace {
			t := make(event.Trace, n)
			for i := range t {
				t[i] = event.ID(10 + rng.Intn(5)) // foreign events
			}
			return t
		}
		tr := append(noise(rng.Intn(4)), o...)
		tr = append(tr, noise(rng.Intn(4))...)
		return p.MatchesTrace(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: Frequency equals the share of traces that contain one of the
// enumerated orders of p as a contiguous window, on random logs in which
// events repeat.
func TestFrequencyAgreesWithEnumerationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3)
		pool := make([]event.ID, n)
		for i := range pool {
			pool[i] = event.ID(i)
		}
		p := randomPattern(rng, pool, 2)
		orders := enumerateOrders(p)
		l := event.NewLog()
		for i := 0; i < n; i++ {
			l.Alphabet.Intern(string(rune('A' + i)))
		}
		for i := 0; i < 1+rng.Intn(20); i++ {
			tr := make(event.Trace, 1+rng.Intn(12))
			for j := range tr {
				tr[j] = event.ID(rng.Intn(n))
			}
			if rng.Intn(3) == 0 {
				// Plant an allowed order so that matches are not rare.
				o := orders[rng.Intn(len(orders))]
				at := rng.Intn(len(tr) + 1)
				tr = append(tr[:at:at], append(append(event.Trace(nil), o...), tr[at:]...)...)
			}
			l.Append(tr)
		}
		matched := 0
		for _, tr := range l.Traces {
			if containsOrder(tr, orders) {
				matched++
			}
		}
		return p.Frequency(l) == float64(matched)/float64(l.NumTraces())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// containsOrder reports whether some contiguous window of tr equals one of
// the given orders.
func containsOrder(tr event.Trace, orders []event.Trace) bool {
	for _, o := range orders {
		for i := 0; i+len(o) <= len(tr); i++ {
			if traceKey(tr[i:i+len(o)]) == traceKey(o) {
				return true
			}
		}
	}
	return false
}

func traceKey(t event.Trace) string {
	b := make([]byte, len(t))
	for i, e := range t {
		b[i] = byte(e)
	}
	return string(b)
}

// randomPattern builds a random pattern over a prefix of the given events,
// with nesting depth at most depth. It uses each event at most once.
func randomPattern(rng *rand.Rand, pool []event.ID, depth int) *Pattern {
	n := 2 + rng.Intn(len(pool)-1)
	perm := rng.Perm(len(pool))[:n]
	evs := make([]event.ID, n)
	for i, pi := range perm {
		evs[i] = pool[pi]
	}
	return buildRandom(rng, evs, depth)
}

func buildRandom(rng *rand.Rand, evs []event.ID, depth int) *Pattern {
	if len(evs) == 1 {
		return Single(evs[0])
	}
	if depth == 0 {
		subs := make([]*Pattern, len(evs))
		for i, e := range evs {
			subs[i] = Single(e)
		}
		if rng.Intn(2) == 0 {
			return must(Seq(subs...))
		}
		return must(And(subs...))
	}
	// Split evs into 2..len groups.
	k := 2 + rng.Intn(len(evs)-1)
	if k > len(evs) {
		k = len(evs)
	}
	groups := make([][]event.ID, k)
	for i, e := range evs {
		g := i % k
		groups[g] = append(groups[g], e)
	}
	subs := make([]*Pattern, k)
	for i, g := range groups {
		subs[i] = buildRandom(rng, g, depth-1)
	}
	if rng.Intn(2) == 0 {
		return must(Seq(subs...))
	}
	return must(And(subs...))
}
