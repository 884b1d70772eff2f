package gen

import (
	"reflect"
	"testing"

	"eventmatch/internal/depgraph"
	"eventmatch/internal/event"
	"eventmatch/internal/match"
	"eventmatch/internal/pattern"
)

func TestRealLikeShape(t *testing.T) {
	g := RealLike(7, 3000)
	if g.L1.NumTraces() != 3000 || g.L2.NumTraces() != 3000 {
		t.Fatalf("traces = %d / %d", g.L1.NumTraces(), g.L2.NumTraces())
	}
	if g.L1.NumEvents() != 11 || g.L2.NumEvents() != 11 {
		t.Fatalf("events = %d / %d, want 11 (Table 3)", g.L1.NumEvents(), g.L2.NumEvents())
	}
	if len(g.Patterns) != 3 {
		t.Fatalf("patterns = %d, want 3 (Table 3)", len(g.Patterns))
	}
	// The dependency graph should be dense, in the spirit of Table 3's 57
	// edges over 11 events.
	g1 := depgraph.Build(g.L1)
	if g1.NumEdges() < 25 {
		t.Errorf("G1 edges = %d, want a dense graph (>=25)", g1.NumEdges())
	}
}

func TestRealLikeDeterministic(t *testing.T) {
	a := RealLike(42, 100)
	b := RealLike(42, 100)
	if !reflect.DeepEqual(a.L1.Traces, b.L1.Traces) || !reflect.DeepEqual(a.L2.Traces, b.L2.Traces) {
		t.Error("same seed must reproduce the same logs")
	}
	if !reflect.DeepEqual(a.Truth, b.Truth) {
		t.Error("same seed must reproduce the same truth")
	}
	c := RealLike(43, 100)
	if reflect.DeepEqual(a.L1.Traces, c.L1.Traces) {
		t.Error("different seeds should differ")
	}
}

func TestRealLikeTruthIsPermutation(t *testing.T) {
	g := RealLike(1, 50)
	seen := map[event.ID]bool{}
	for _, v := range g.Truth {
		if v == event.None || seen[v] {
			t.Fatalf("truth not a permutation: %v", g.Truth)
		}
		seen[v] = true
	}
	// Truth must not be the identity (otherwise tie-breaking could fake
	// accuracy).
	identity := true
	for i, v := range g.Truth {
		if int(v) != i {
			identity = false
		}
	}
	if identity {
		t.Error("truth permutation is the identity; pick a different seed scheme")
	}
}

func TestRealLikeTruthPreservesStatistics(t *testing.T) {
	// Under the true mapping, vertex frequencies must be close (not equal —
	// the departments differ), since both departments run the same process.
	g := RealLike(3, 2000)
	g1, g2 := depgraph.Build(g.L1), depgraph.Build(g.L2)
	for v1, v2 := range g.Truth {
		f1, f2 := g1.VertexFreq(event.ID(v1)), g2.VertexFreq(v2)
		if diff := f1 - f2; diff > 0.12 || diff < -0.12 {
			t.Errorf("event %s: f1=%v f2=%v differ too much", g.L1.Alphabet.Name(event.ID(v1)), f1, f2)
		}
	}
}

func TestRealLikePatternsBindAndOccur(t *testing.T) {
	g := RealLike(5, 1000)
	for _, src := range g.Patterns {
		p, err := pattern.ParseBind(src, g.L1.Alphabet)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if f := p.Frequency(g.L1); f == 0 {
			t.Errorf("%s: zero frequency in L1", src)
		}
		// The corresponding true pattern must also occur in L2.
		mapped, err := p.Map(g.Truth)
		if err != nil {
			t.Fatalf("%s: map: %v", src, err)
		}
		if f := mapped.Frequency(g.L2); f == 0 {
			t.Errorf("%s: zero frequency for true image in L2", src)
		}
	}
}

func TestLargeSyntheticShape(t *testing.T) {
	g := LargeSynthetic(11, 10, 500)
	if g.L1.NumEvents() != 100 || g.L2.NumEvents() != 100 {
		t.Fatalf("events = %d / %d, want 100", g.L1.NumEvents(), g.L2.NumEvents())
	}
	if len(g.Patterns) != 16 {
		// 10 AND + 6 SEQ — Table 3's synthetic pattern count.
		t.Fatalf("patterns = %d, want 16", len(g.Patterns))
	}
	for _, src := range g.Patterns {
		p, err := pattern.ParseBind(src, g.L1.Alphabet)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if f := p.Frequency(g.L1); f == 0 {
			t.Errorf("%s: zero frequency", src)
		}
	}
}

func TestLargeSyntheticParallelVsSeparate(t *testing.T) {
	g := LargeSynthetic(2, 1, 2000)
	a := g.L1.Alphabet
	// AND over the parallel group has frequency 1.0.
	pAnd, err := pattern.ParseBind("AND(b0_a,b0_b,b0_c,b0_d)", a)
	if err != nil {
		t.Fatal(err)
	}
	if f := pAnd.Frequency(g.L1); f != 1.0 {
		t.Errorf("parallel AND frequency = %v, want 1.0", f)
	}
	// The wrap-group composite SEQ(s,AND(f,g,h,i),t) must be noticeably
	// rarer than the parallel AND (deferral breaks it) — that asymmetry is
	// a discriminative signal.
	pSep, err := pattern.ParseBind("SEQ(b0_s,AND(b0_f,b0_g,b0_h,b0_i),b0_t)", a)
	if err != nil {
		t.Fatal(err)
	}
	if f := pSep.Frequency(g.L1); f > 0.8 || f < 0.4 {
		t.Errorf("wrap composite frequency = %v, want around 1-deferProb (0.65)", f)
	}
	// But both groups have full vertex frequency.
	g1 := depgraph.Build(g.L1)
	for _, name := range []string{"b0_a", "b0_f"} {
		if f := g1.VertexFreq(a.Lookup(name)); f != 1.0 {
			t.Errorf("vertex %s frequency = %v, want 1.0", name, f)
		}
	}
}

func TestRandomPair(t *testing.T) {
	g := RandomPair(9, 4, 1000, 8)
	if g.Truth != nil {
		t.Error("random pair has no truth")
	}
	if g.L1.NumEvents() != 4 || g.L2.NumEvents() != 4 {
		t.Errorf("events = %d / %d", g.L1.NumEvents(), g.L2.NumEvents())
	}
	if g.L1.NumTraces() != 1000 {
		t.Errorf("traces = %d", g.L1.NumTraces())
	}
	if reflect.DeepEqual(g.L1.Traces, g.L2.Traces) {
		t.Error("the two random logs must be independent")
	}
}

func TestFig1(t *testing.T) {
	g := Fig1()
	if g.L1.NumEvents() != 6 || g.L2.NumEvents() != 8 {
		t.Fatalf("events = %d / %d, want 6 / 8", g.L1.NumEvents(), g.L2.NumEvents())
	}
	p, err := pattern.ParseBind(g.Patterns[0], g.L1.Alphabet)
	if err != nil {
		t.Fatal(err)
	}
	if f := p.Frequency(g.L1); f != 1.0 {
		t.Errorf("p1 frequency in L1 = %v, want 1.0 (Example 2)", f)
	}
	mapped, err := p.Map(g.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if f := mapped.Frequency(g.L2); f != 1.0 {
		t.Errorf("p2 frequency in L2 = %v, want 1.0 (Example 2)", f)
	}
}

func TestProjectEvents(t *testing.T) {
	g := RealLike(13, 500)
	pg, err := g.ProjectEvents(5)
	if err != nil {
		t.Fatal(err)
	}
	if pg.L1.NumEvents() != 5 || pg.L2.NumEvents() != 5 {
		t.Fatalf("projected events = %d / %d", pg.L1.NumEvents(), pg.L2.NumEvents())
	}
	// Projected truth must be a bijection over 0..4 and preserve names.
	for v1, v2 := range pg.Truth {
		n1 := pg.L1.Alphabet.Name(event.ID(v1))
		n2 := pg.L2.Alphabet.Name(v2)
		// Find original pair and compare names.
		o1 := g.L1.Alphabet.Lookup(n1)
		if o1 == event.None {
			t.Fatalf("projected L1 name %q missing in original", n1)
		}
		if got := g.L2.Alphabet.Name(g.Truth[o1]); got != n2 {
			t.Errorf("truth broken: %q maps to %q, originally %q", n1, n2, got)
		}
	}
}

func TestProjectEventsErrors(t *testing.T) {
	g := RealLike(13, 50)
	if _, err := g.ProjectEvents(0); err == nil {
		t.Error("k=0 must fail")
	}
	if _, err := g.ProjectEvents(99); err == nil {
		t.Error("k too large must fail")
	}
	r := RandomPair(1, 4, 10, 4)
	if _, err := r.ProjectEvents(2); err == nil {
		t.Error("projection without truth must fail")
	}
}

func TestProjectEventsFiltersPatterns(t *testing.T) {
	g := RealLike(13, 500)
	full, err := g.ProjectEvents(g.L1.NumEvents())
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Patterns) != len(g.Patterns) {
		t.Errorf("full projection lost patterns: %d vs %d", len(full.Patterns), len(g.Patterns))
	}
	small, err := g.ProjectEvents(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range small.Patterns {
		if _, err := pattern.ParseBind(src, small.L1.Alphabet); err != nil {
			t.Errorf("surviving pattern %q does not bind: %v", src, err)
		}
	}
}

func TestPatternSurvives(t *testing.T) {
	a := event.NewAlphabet("A", "B")
	if !patternSurvives("SEQ(A,B)", a) {
		t.Error("SEQ(A,B) should survive")
	}
	if patternSurvives("SEQ(A,C)", a) {
		t.Error("SEQ(A,C) should not survive")
	}
	if !patternSurvives("AND(A,SEQ(B))", a) {
		t.Error("nested should survive")
	}
}

func TestGeneratedLogsValidate(t *testing.T) {
	for _, g := range []*Generated{RealLike(1, 200), LargeSynthetic(1, 3, 100), RandomPair(1, 4, 100, 6), Fig1()} {
		if err := g.L1.Validate(); err != nil {
			t.Errorf("L1: %v", err)
		}
		if err := g.L2.Validate(); err != nil {
			t.Errorf("L2: %v", err)
		}
	}
}

func TestFig1PatternBeatsBaselineScore(t *testing.T) {
	// The motivating claim: under pattern matching, the truth has the top
	// score among all mappings (Example 4's argument).
	g := Fig1()
	p, err := pattern.ParseBind(g.Patterns[0], g.L1.Alphabet)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := match.BuildProblem(g.L1, g.L2, []*pattern.Pattern{p}, match.ModePattern)
	if err != nil {
		t.Fatal(err)
	}
	_, best := pr.BruteForce()
	truthScore := pr.Distance(g.Truth)
	if truthScore < best-1e-9 {
		t.Logf("truth %v < best %v — acceptable only if ties", truthScore, best)
	}
	if best-truthScore > 0.5 {
		t.Errorf("truth score %v far below optimum %v", truthScore, best)
	}
}

// TestRealLikeDivergenceSharesSource checks what the divergence knob leaves
// alone: the source log, the truth and the patterns are RealLike's at every
// scale, and the same seed reproduces the same target log.
func TestRealLikeDivergenceSharesSource(t *testing.T) {
	ref := RealLike(9, 150)
	for _, scale := range []float64{0, 0.5, 1, 3} {
		g := RealLikeDivergence(9, 150, scale)
		if !reflect.DeepEqual(g.L1.Traces, ref.L1.Traces) || !reflect.DeepEqual(g.L1.Alphabet.Names(), ref.L1.Alphabet.Names()) {
			t.Errorf("scale %v: source log differs from RealLike's", scale)
		}
		if !reflect.DeepEqual(g.Truth, ref.Truth) || !reflect.DeepEqual(g.Patterns, ref.Patterns) {
			t.Errorf("scale %v: truth or patterns differ from RealLike's", scale)
		}
		if again := RealLikeDivergence(9, 150, scale); !reflect.DeepEqual(again.L2.Traces, g.L2.Traces) {
			t.Errorf("scale %v: same seed gave a different target log", scale)
		}
	}
}

// TestRealLikeDivergenceExtremeScales checks that exaggerated scales, which
// would push an order weight below zero without the clamp, still produce
// valid logs of the requested size whose patterns bind to the source.
func TestRealLikeDivergenceExtremeScales(t *testing.T) {
	for _, scale := range []float64{0, 10, 50} {
		g := RealLikeDivergence(4, 120, scale)
		if g.L1.NumTraces() != 120 || g.L2.NumTraces() != 120 {
			t.Errorf("scale %v: %d/%d traces, want 120", scale, g.L1.NumTraces(), g.L2.NumTraces())
		}
		if err := g.L2.Validate(); err != nil {
			t.Errorf("scale %v: L2: %v", scale, err)
		}
		if g.L2.NumEvents() != g.L1.NumEvents() {
			t.Errorf("scale %v: %d target events, %d source events", scale, g.L2.NumEvents(), g.L1.NumEvents())
		}
		for _, src := range g.Patterns {
			if _, err := pattern.ParseBind(src, g.L1.Alphabet); err != nil {
				t.Errorf("scale %v: pattern %q: %v", scale, src, err)
			}
		}
	}
}
