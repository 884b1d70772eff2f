package match

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"eventmatch/internal/event"
	"eventmatch/internal/pattern"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// fig1Logs builds a pair of logs in the spirit of the paper's Fig. 1: L2 is a
// renamed copy of L1 (plus two extra prefix events), so the ground-truth
// mapping is known exactly.
func fig1Logs() (l1, l2 *event.Log, truth Mapping) {
	l1 = event.FromStrings(
		"A B C D E",
		"A C B D F",
		"A B C D E",
		"A C B D F",
		"A B C D E",
	)
	// L2: each trace prefixed by bookkeeping events X Y, then the renamed
	// trace (A→a3, B→a4, C→a5, D→a6, E→a7, F→a8).
	l2 = event.FromStrings(
		"X Y a3 a4 a5 a6 a7",
		"Y X a3 a5 a4 a6 a8",
		"X Y a3 a4 a5 a6 a7",
		"Y X a3 a5 a4 a6 a8",
		"X Y a3 a4 a5 a6 a7",
	)
	truth = NewMapping(l1.NumEvents())
	pairs := map[string]string{"A": "a3", "B": "a4", "C": "a5", "D": "a6", "E": "a7", "F": "a8"}
	for n1, n2 := range pairs {
		truth[l1.Alphabet.Lookup(n1)] = l2.Alphabet.Lookup(n2)
	}
	return l1, l2, truth
}

func paperPattern(t *testing.T, l1 *event.Log) *pattern.Pattern {
	t.Helper()
	p, err := pattern.ParseBind("SEQ(A,AND(B,C),D)", l1.Alphabet)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSim(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{1, 1, 1},
		{0, 0, 0},
		{1, 0, 0},
		{0, 1, 0},
		{1, 0.9, 1 - 0.1/1.9},
		{0.9, 1, 1 - 0.1/1.9},
		{0.5, 0.5, 1},
	}
	for _, c := range cases {
		if got := Sim(c.a, c.b); !approx(got, c.want) {
			t.Errorf("Sim(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSimRangeProperty(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		s := Sim(a, b)
		return s >= 0 && s <= 1 && Sim(a, b) == Sim(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapping(t *testing.T) {
	m := NewMapping(3)
	if m.Complete() {
		t.Error("fresh mapping should not be complete")
	}
	m[0], m[1], m[2] = 2, 0, 1
	if !m.Complete() {
		t.Error("fully assigned mapping should be complete")
	}
	if got := len(m.Pairs()); got != 3 {
		t.Errorf("Pairs = %d, want 3", got)
	}
	cl := m.Clone()
	cl[0] = event.None
	if m[0] != 2 {
		t.Error("Clone must not alias")
	}
	a1 := event.NewAlphabet("A", "B", "C")
	a2 := event.NewAlphabet("x", "y", "z")
	if got := m.String(a1, a2); got != "{A->z, B->x, C->y}" {
		t.Errorf("String = %q", got)
	}
}

func TestBuildProblemModes(t *testing.T) {
	l1, l2, _ := fig1Logs()
	pv, err := BuildProblem(l1, l2, nil, ModeVertex)
	if err != nil {
		t.Fatal(err)
	}
	if pv.NumPatterns() != l1.NumEvents() {
		t.Errorf("vertex mode patterns = %d, want %d", pv.NumPatterns(), l1.NumEvents())
	}
	pve, err := BuildProblem(l1, l2, nil, ModeVertexEdge)
	if err != nil {
		t.Fatal(err)
	}
	if pve.NumPatterns() != l1.NumEvents()+pve.G1.NumEdges() {
		t.Errorf("vertex+edge patterns = %d, want %d", pve.NumPatterns(), l1.NumEvents()+pve.G1.NumEdges())
	}
	pp, err := BuildProblem(l1, l2, []*pattern.Pattern{paperPattern(t, l1)}, ModePattern)
	if err != nil {
		t.Fatal(err)
	}
	if pp.NumPatterns() != pve.NumPatterns()+1 {
		t.Errorf("pattern mode patterns = %d, want %d", pp.NumPatterns(), pve.NumPatterns()+1)
	}
}

func TestBuildProblemDropsZeroFreqUserPatterns(t *testing.T) {
	l1, l2, _ := fig1Logs()
	// SEQ(D,A) never occurs in L1.
	p, err := pattern.ParseBind("SEQ(D,A)", l1.Alphabet)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := BuildProblem(l1, l2, []*pattern.Pattern{p}, ModePattern)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := BuildProblem(l1, l2, nil, ModePattern)
	if pr.NumPatterns() != base.NumPatterns() {
		t.Error("zero-frequency user pattern must be dropped")
	}
}

func TestBuildProblemRejectsBadPattern(t *testing.T) {
	l1, l2, _ := fig1Logs()
	if _, err := BuildProblem(l1, l2, []*pattern.Pattern{nil}, ModePattern); err == nil {
		t.Error("nil user pattern must fail")
	}
	foreign := pattern.MustSeq(pattern.Single(90), pattern.Single(91))
	if _, err := BuildProblem(l1, l2, []*pattern.Pattern{foreign}, ModePattern); err == nil {
		t.Error("out-of-alphabet user pattern must fail")
	}
}

func TestDistanceMatchesClosedForms(t *testing.T) {
	l1, l2, truth := fig1Logs()
	pv, _ := BuildProblem(l1, l2, nil, ModeVertex)
	if got, want := pv.Distance(truth), VertexDistance(pv.G1, pv.G2, truth); !approx(got, want) {
		t.Errorf("vertex Distance = %v, closed form %v", got, want)
	}
	pve, _ := BuildProblem(l1, l2, nil, ModeVertexEdge)
	if got, want := pve.Distance(truth), VertexEdgeDistance(pve.G1, pve.G2, truth); !approx(got, want) {
		t.Errorf("vertex+edge Distance = %v, closed form %v", got, want)
	}
}

func TestTruthScoresAsExpected(t *testing.T) {
	l1, l2, truth := fig1Logs()
	// Under the true mapping every mapped vertex and edge has identical
	// frequency in both logs, so each of the 6 vertex patterns contributes
	// exactly 1.0.
	pv, _ := BuildProblem(l1, l2, nil, ModeVertex)
	if got := pv.Distance(truth); !approx(got, 6.0) {
		t.Errorf("vertex distance of truth = %v, want 6.0", got)
	}
	pp, _ := BuildProblem(l1, l2, []*pattern.Pattern{paperPattern(t, l1)}, ModePattern)
	want := float64(pp.NumPatterns())
	if got := pp.Distance(truth); !approx(got, want) {
		t.Errorf("pattern distance of truth = %v, want %v (all patterns perfect)", got, want)
	}
}

func TestAStarFindsOptimal(t *testing.T) {
	l1, l2, truth := fig1Logs()
	pp, _ := BuildProblem(l1, l2, []*pattern.Pattern{paperPattern(t, l1)}, ModePattern)
	for _, bound := range []BoundKind{BoundSimple, BoundTight, BoundSharp} {
		m, st, err := pp.AStar(Options{Bound: bound})
		if err != nil {
			t.Fatalf("%v: %v", bound, err)
		}
		_, bfScore := pp.BruteForce()
		if !approx(st.Score, bfScore) {
			t.Errorf("%v: A* score %v != brute force %v", bound, st.Score, bfScore)
		}
		if !approx(pp.Distance(m), st.Score) {
			t.Errorf("%v: reported score %v != recomputed %v", bound, st.Score, pp.Distance(m))
		}
		// The true mapping is perfect here, so the optimum must equal it.
		if !approx(st.Score, pp.Distance(truth)) {
			t.Errorf("%v: optimum %v != truth score %v", bound, st.Score, pp.Distance(truth))
		}
	}
}

func TestTightBoundPrunesAtLeastAsWell(t *testing.T) {
	l1, l2, _ := fig1Logs()
	pp, _ := BuildProblem(l1, l2, []*pattern.Pattern{paperPattern(t, l1)}, ModePattern)
	_, stSimple, err := pp.AStar(Options{Bound: BoundSimple})
	if err != nil {
		t.Fatal(err)
	}
	_, stTight, err := pp.AStar(Options{Bound: BoundTight})
	if err != nil {
		t.Fatal(err)
	}
	if stTight.Generated > stSimple.Generated {
		t.Errorf("tight bound generated %d nodes > simple %d", stTight.Generated, stSimple.Generated)
	}
	if !approx(stTight.Score, stSimple.Score) {
		t.Errorf("scores differ: tight %v simple %v", stTight.Score, stSimple.Score)
	}
}

func TestAStarBudget(t *testing.T) {
	// Exhausting MaxGenerated no longer aborts: the search returns the best
	// complete-so-far mapping and marks the stats truncated.
	l1, l2, _ := fig1Logs()
	pp, _ := BuildProblem(l1, l2, nil, ModeVertexEdge)
	m, st, err := pp.AStar(Options{Bound: BoundSimple, MaxGenerated: 3})
	if err != nil {
		t.Fatalf("err = %v, want anytime result", err)
	}
	if !st.Truncated || st.StopReason != StopMaxGenerated {
		t.Errorf("stats = %+v, want Truncated with StopReason=%q", st, StopMaxGenerated)
	}
	if !m.Complete() {
		t.Errorf("truncated mapping incomplete: %v", m)
	}
}

func TestGreedyExpandComplete(t *testing.T) {
	l1, l2, _ := fig1Logs()
	pp, _ := BuildProblem(l1, l2, []*pattern.Pattern{paperPattern(t, l1)}, ModePattern)
	m, st, err := pp.GreedyExpand(Options{Bound: BoundTight})
	if err != nil {
		t.Fatal(err)
	}
	mapped := 0
	for _, v := range m {
		if v != event.None {
			mapped++
		}
	}
	if mapped != l1.NumEvents() {
		t.Errorf("greedy mapped %d events, want %d", mapped, l1.NumEvents())
	}
	if st.Generated == 0 || st.Expanded != l1.NumEvents() {
		t.Errorf("stats = %+v", st)
	}
	if !approx(st.Score, pp.Distance(m)) {
		t.Errorf("score %v != recomputed %v", st.Score, pp.Distance(m))
	}
}

func TestHeuristicAdvancedComplete(t *testing.T) {
	l1, l2, _ := fig1Logs()
	pp, _ := BuildProblem(l1, l2, []*pattern.Pattern{paperPattern(t, l1)}, ModePattern)
	m, st, err := pp.HeuristicAdvanced(Options{Bound: BoundTight})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete() {
		t.Errorf("mapping incomplete: %v", m)
	}
	if !approx(st.Score, pp.Distance(m)) {
		t.Errorf("score %v != recomputed %v", st.Score, pp.Distance(m))
	}
}

// Proposition 6: with vertex-only patterns, HeuristicAdvanced is optimal.
func TestHeuristicAdvancedOptimalForVertexPatterns(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l1 := randomLog(rng, 3+rng.Intn(3), 5+rng.Intn(15))
		l2 := randomLog(rng, l1.NumEvents(), 5+rng.Intn(15))
		pr, err := BuildProblem(l1, l2, nil, ModeVertex)
		if err != nil {
			return false
		}
		m, st, err := pr.HeuristicAdvanced(Options{Bound: BoundTight})
		if err != nil || !m.Complete() {
			return false
		}
		_, bfScore := pr.BruteForce()
		return math.Abs(st.Score-bfScore) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: A* with both bounds equals brute force on random instances.
func TestAStarOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		l1 := randomLog(rng, n, 4+rng.Intn(10))
		l2 := randomLog(rng, n+rng.Intn(2), 4+rng.Intn(10))
		var user []*pattern.Pattern
		if n >= 3 && rng.Intn(2) == 0 {
			user = append(user, pattern.MustSeq(pattern.Single(0), pattern.MustAnd(pattern.Single(1), pattern.Single(2))))
		}
		pr, err := BuildProblem(l1, l2, user, ModePattern)
		if err != nil {
			return false
		}
		_, bfScore := pr.BruteForce()
		for _, b := range []BoundKind{BoundSimple, BoundTight, BoundSharp} {
			_, st, err := pr.AStar(Options{Bound: b})
			if err != nil {
				return false
			}
			if math.Abs(st.Score-bfScore) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the tight bound is sound — for every pattern and every complete
// extension of the empty mapping, Δ(p, V2) ≥ d(p).
func TestTightBoundSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(2)
		l1 := randomLog(rng, n, 4+rng.Intn(10))
		l2 := randomLog(rng, n, 4+rng.Intn(10))
		user := []*pattern.Pattern{
			pattern.MustSeq(pattern.Single(0), pattern.MustAnd(pattern.Single(1), pattern.Single(2))),
		}
		pr, err := BuildProblem(l1, l2, user, ModePattern)
		if err != nil {
			return false
		}
		used := make([]bool, l2.NumEvents())
		bc := newBoundContext(pr, used)
		empty := NewMapping(n)
		// Try several random complete mappings.
		for trial := 0; trial < 10; trial++ {
			perm := rng.Perm(l2.NumEvents())
			m := NewMapping(n)
			for i := 0; i < n; i++ {
				m[i] = event.ID(perm[i])
			}
			for i := range pr.patterns {
				pi := &pr.patterns[i]
				bound := bc.bound(pi, empty, true)
				actual := pr.contribution(pi, m)
				if bound < actual-1e-9 {
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

// Property: for partial mappings, the tight bound stays above the best
// achievable completion, pattern by pattern.
func TestTightBoundPartialSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4
		l1 := randomLog(rng, n, 6)
		l2 := randomLog(rng, n, 6)
		user := []*pattern.Pattern{
			pattern.MustSeq(pattern.Single(0), pattern.Single(1), pattern.Single(2)),
		}
		pr, err := BuildProblem(l1, l2, user, ModePattern)
		if err != nil {
			return false
		}
		// Fix a partial mapping of the first two order events.
		partial := NewMapping(n)
		used := make([]bool, n)
		a0, a1 := pr.order[0], pr.order[1]
		t0, t1 := rng.Intn(n), rng.Intn(n)
		if t0 == t1 {
			t1 = (t1 + 1) % n
		}
		partial[a0], partial[a1] = event.ID(t0), event.ID(t1)
		used[t0], used[t1] = true, true
		bc := newBoundContext(pr, used)
		// Enumerate every completion, track per-pattern max contribution.
		free1 := []event.ID{}
		for v := 0; v < n; v++ {
			if partial[v] == event.None {
				free1 = append(free1, event.ID(v))
			}
		}
		free2 := []event.ID{}
		for v := 0; v < n; v++ {
			if !used[v] {
				free2 = append(free2, event.ID(v))
			}
		}
		maxContrib := make([]float64, len(pr.patterns))
		permute(free2, func(p2 []event.ID) {
			m := partial.Clone()
			for i, v1 := range free1 {
				m[v1] = p2[i]
			}
			for i := range pr.patterns {
				if c := pr.contribution(&pr.patterns[i], m); c > maxContrib[i] {
					maxContrib[i] = c
				}
			}
		})
		for i := range pr.patterns {
			pi := &pr.patterns[i]
			if fullyMapped(pi, partial) {
				continue
			}
			if bc.bound(pi, partial, true) < maxContrib[i]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func permute(items []event.ID, visit func([]event.ID)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(items) {
			visit(items)
			return
		}
		for i := k; i < len(items); i++ {
			items[k], items[i] = items[i], items[k]
			rec(k + 1)
			items[k], items[i] = items[i], items[k]
		}
	}
	rec(0)
}

func randomLog(rng *rand.Rand, nEvents, nTraces int) *event.Log {
	l := event.NewLog()
	for i := 0; i < nEvents; i++ {
		l.Alphabet.Intern(string(rune('A' + i)))
	}
	for i := 0; i < nTraces; i++ {
		tr := make(event.Trace, 1+rng.Intn(2*nEvents))
		for j := range tr {
			tr[j] = event.ID(rng.Intn(nEvents))
		}
		l.Append(tr)
	}
	return l
}

func TestExpansionOrderPrefersHighDegree(t *testing.T) {
	l1, l2, _ := fig1Logs()
	pp, _ := BuildProblem(l1, l2, []*pattern.Pattern{paperPattern(t, l1)}, ModePattern)
	// The first event in the order must have maximal pattern degree.
	first := pp.order[0]
	for v := 0; v < l1.NumEvents(); v++ {
		if pp.pix.Degree(event.ID(v)) > pp.pix.Degree(first) {
			t.Errorf("event %d has higher degree than first-expanded %d", v, first)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeVertex.String() != "vertex" || ModeVertexEdge.String() != "vertex+edge" || ModePattern.String() != "pattern" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode must render something")
	}
	if BoundSimple.String() != "simple" || BoundTight.String() != "tight" {
		t.Error("bound strings wrong")
	}
}

func TestThetaVertexOnlyEqualsVertexSim(t *testing.T) {
	// With vertex patterns only, θ(v1,v2) = Sim(f1(v1), f2(v2)) — property (2)
	// of §5.1.1 (|p| = 1 for every pattern).
	l1, l2, _ := fig1Logs()
	pr, _ := BuildProblem(l1, l2, nil, ModeVertex)
	for v1 := 0; v1 < l1.NumEvents(); v1++ {
		for v2 := 0; v2 < l2.NumEvents(); v2++ {
			want := Sim(pr.G1.VertexFreq(event.ID(v1)), pr.G2.VertexFreq(event.ID(v2)))
			if got := pr.Theta(event.ID(v1), event.ID(v2)); !approx(got, want) {
				t.Fatalf("theta(%d,%d) = %v, want %v", v1, v2, got, want)
			}
		}
	}
}

func TestUnequalAlphabetSizes(t *testing.T) {
	// |V1| < |V2|: every V1 event must map. |V1| > |V2|: exactly |V2| map.
	l1 := event.FromStrings("A B", "B A")
	l2 := event.FromStrings("x y z", "z y x")
	pr, err := BuildProblem(l1, l2, nil, ModeVertexEdge)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := pr.AStar(Options{Bound: BoundTight})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete() {
		t.Errorf("smaller side must be fully mapped: %v", m)
	}
	// Reverse direction.
	pr2, err := BuildProblem(l2, l1, nil, ModeVertexEdge)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := pr2.AStar(Options{Bound: BoundTight})
	if err != nil {
		t.Fatal(err)
	}
	mapped := 0
	for _, v := range m2 {
		if v != event.None {
			mapped++
		}
	}
	if mapped != 2 {
		t.Errorf("mapped = %d, want 2", mapped)
	}
	// Heuristics must handle both, too.
	hm, _, err := pr2.HeuristicAdvanced(Options{Bound: BoundTight})
	if err != nil {
		t.Fatal(err)
	}
	mapped = 0
	for _, v := range hm {
		if v != event.None {
			mapped++
		}
	}
	if mapped != 2 {
		t.Errorf("heuristic mapped = %d, want 2", mapped)
	}
}

func TestPatternStringsAndCounts(t *testing.T) {
	l1, l2, truth := fig1Logs()
	pp, _ := BuildProblem(l1, l2, []*pattern.Pattern{paperPattern(t, l1)}, ModePattern)
	ss := pp.PatternStrings()
	if len(ss) != pp.NumPatterns() {
		t.Fatalf("strings = %d, patterns = %d", len(ss), pp.NumPatterns())
	}
	found := false
	for _, s := range ss {
		if s == "SEQ(A,AND(B,C),D)" {
			found = true
		}
	}
	if !found {
		t.Errorf("user pattern missing from %v", ss)
	}
	if got := pp.MappedPatternCount(truth); got != pp.NumPatterns() {
		t.Errorf("MappedPatternCount(truth) = %d, want all %d", got, pp.NumPatterns())
	}
	if got := pp.MappedPatternCount(NewMapping(l1.NumEvents())); got != 0 {
		t.Errorf("MappedPatternCount(empty) = %d, want 0", got)
	}
}

func TestSetMappingHelpers(t *testing.T) {
	sm := SetMapping{{2, 3}, nil, {5}}
	images := sm.Images()
	if len(images) != 3 {
		t.Errorf("Images = %v", images)
	}
	cl := sm.Clone()
	cl[0][0] = 9
	if sm[0][0] != 2 {
		t.Error("Clone must not alias")
	}
}

func TestNaiveOrderOption(t *testing.T) {
	l1, l2, _ := fig1Logs()
	pp, _ := BuildProblem(l1, l2, []*pattern.Pattern{paperPattern(t, l1)}, ModePattern)
	mDeg, stDeg, err := pp.AStar(Options{Bound: BoundSharp})
	if err != nil {
		t.Fatal(err)
	}
	mNaive, stNaive, err := pp.AStar(Options{Bound: BoundSharp, NaiveOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pp.Distance(mDeg), pp.Distance(mNaive)) {
		t.Errorf("order changed the optimum: %v vs %v", pp.Distance(mDeg), pp.Distance(mNaive))
	}
	if stDeg.Generated == 0 || stNaive.Generated == 0 {
		t.Error("missing stats")
	}
}
