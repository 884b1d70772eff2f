package match

import (
	"context"
	"math"
	"sort"
	"testing"
	"time"

	"eventmatch/internal/event"
	"eventmatch/internal/pattern"
)

// chainLogs builds two renamed copies of a two-block chained process:
// perm(A,B) X perm(C,D) Y — the blocks are structurally identical, so only
// chain context separates them.
func chainLogs() (*event.Log, *event.Log, Mapping) {
	l1 := event.FromStrings(
		"A B X C D Y",
		"B A X D C Y",
		"A B X C D Y",
		"B A X C D Y",
		"A B X D C Y",
	)
	l2 := event.FromStrings(
		"a b x c d y",
		"b a x d c y",
		"a b x c d y",
		"b a x c d y",
		"a b x d c y",
	)
	truth := NewMapping(l1.NumEvents())
	for n1, n2 := range map[string]string{"A": "a", "B": "b", "X": "x", "C": "c", "D": "d", "Y": "y"} {
		truth[l1.Alphabet.Lookup(n1)] = l2.Alphabet.Lookup(n2)
	}
	return l1, l2, truth
}

func chainPatterns(t *testing.T, l1 *event.Log) []*pattern.Pattern {
	t.Helper()
	var out []*pattern.Pattern
	for _, src := range []string{"SEQ(AND(A,B),X)", "SEQ(AND(C,D),Y)"} {
		p, err := pattern.ParseBind(src, l1.Alphabet)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func TestSeedFromPatternsAnchorsBlocks(t *testing.T) {
	l1, l2, truth := chainLogs()
	pr, err := BuildProblem(l1, l2, chainPatterns(t, l1), ModePattern)
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	seeds := pr.seedFromPatterns(&st, newStopper(context.Background(), Options{}, time.Now()), boundedPhases.pickEmbedding)
	if len(seeds) == 0 {
		t.Fatal("no anchors committed")
	}
	// Anchors must never conflict and must all be correct here: the chain
	// context (X between the blocks, Y terminal) disambiguates fully.
	seenTarget := map[int]bool{}
	for _, s := range seeds {
		if seenTarget[s[1]] {
			t.Fatalf("target %d used twice", s[1])
		}
		seenTarget[s[1]] = true
		if truth[s[0]] != event.ID(s[1]) {
			t.Errorf("anchor %s -> %s wrong (truth %s)",
				l1.Alphabet.Name(event.ID(s[0])), l2.Alphabet.Name(event.ID(s[1])),
				l2.Alphabet.Name(truth[s[0]]))
		}
	}
	if st.Generated == 0 {
		t.Error("seeding reported no work")
	}
}

func TestSeedFromPatternsNoComplexPatterns(t *testing.T) {
	l1, l2, _ := chainLogs()
	pr, err := BuildProblem(l1, l2, nil, ModeVertexEdge)
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if seeds := pr.seedFromPatterns(&st, newStopper(context.Background(), Options{}, time.Now()), boundedPhases.pickEmbedding); seeds != nil {
		t.Errorf("vertex+edge problems must not seed: %v", seeds)
	}
}

func TestHeuristicAdvancedNoSeedOption(t *testing.T) {
	l1, l2, _ := chainLogs()
	pr, err := BuildProblem(l1, l2, chainPatterns(t, l1), ModePattern)
	if err != nil {
		t.Fatal(err)
	}
	// Both variants must complete; the ablation option must not crash or
	// change the mapping's completeness.
	for _, opts := range []Options{
		{Bound: BoundSimple},
		{Bound: BoundSimple, NoSeed: true},
		{Bound: BoundSimple, NoRepair: true},
		{Bound: BoundSimple, NoSeed: true, NoRepair: true},
	} {
		m, _, err := pr.HeuristicAdvanced(opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !m.Complete() {
			t.Errorf("%+v: incomplete mapping", opts)
		}
	}
}

func TestRepairFixesSwappedPair(t *testing.T) {
	l1, l2, truth := chainLogs()
	pr, err := BuildProblem(l1, l2, chainPatterns(t, l1), ModePattern)
	if err != nil {
		t.Fatal(err)
	}
	// Start from the truth with A and X swapped — a mistake that pattern
	// evidence clearly penalizes.
	m := truth.Clone()
	a, x := l1.Alphabet.Lookup("A"), l1.Alphabet.Lookup("X")
	m[a], m[x] = m[x], m[a]
	before := pr.Distance(m)
	var st Stats
	pr.repair(m, &st, newStopper(context.Background(), Options{}, time.Now()), pr.newSearchTelemetry(Options{}))
	after := pr.Distance(m)
	if after < before {
		t.Errorf("repair decreased score: %v -> %v", before, after)
	}
	if after < pr.Distance(truth)-1e-9 {
		t.Errorf("repair stuck below truth score: %v < %v", after, pr.Distance(truth))
	}
}

func TestSwapAndMoveGains(t *testing.T) {
	l1, l2, truth := chainLogs()
	pr, err := BuildProblem(l1, l2, chainPatterns(t, l1), ModePattern)
	if err != nil {
		t.Fatal(err)
	}
	// With eps = -Inf no bound can decide a move, so every gain is exact.
	exact := math.Inf(-1)
	m := truth.Clone()
	r := pr.newRepairState(m)
	a, b := l1.Alphabet.Lookup("A"), l1.Alphabet.Lookup("X")
	// Gain of swapping then swapping back must be opposite.
	g1 := r.swapGain(m, a, b, exact)
	if ref := pr.refSwapGain(m, a, b); g1 != ref {
		t.Errorf("swap gain %v, full evaluation %v", g1, ref)
	}
	m[a], m[b] = m[b], m[a]
	r.commit()
	g2 := r.swapGain(m, a, b, exact)
	if g1+g2 > 1e-9 || g1+g2 < -1e-9 {
		t.Errorf("swap gains not antisymmetric: %v and %v", g1, g2)
	}
	// swapGain must not mutate the mapping.
	m2 := m.Clone()
	r.swapGain(m, a, b, exact)
	for i := range m {
		if m[i] != m2[i] {
			t.Fatal("swapGain mutated the mapping")
		}
	}
	// rotateGain must not mutate either.
	c := l1.Alphabet.Lookup("C")
	r.rotateGain(m, a, b, c, exact)
	for i := range m {
		if m[i] != m2[i] {
			t.Fatal("rotateGain mutated the mapping")
		}
	}
	// Under a finite eps a gain is exact whenever it exceeds eps, and a
	// bound no smaller than the exact gain otherwise.
	const eps = 1e-12
	n := event.ID(len(m))
	for i := event.ID(0); i < n; i++ {
		for j := event.ID(0); j < n; j++ {
			if j == i {
				continue
			}
			got, ref := r.swapGain(m, i, j, eps), pr.refSwapGain(m, i, j)
			if got < ref || (got > eps && got != ref) {
				t.Errorf("swap %d,%d: bounded gain %v, exact %v", i, j, got, ref)
			}
			for k := j + 1; k < n; k++ {
				if k == i {
					continue
				}
				got, ref := r.rotateGain(m, i, j, k, eps), pr.refRotateGain(m, i, j, k)
				if got < ref || (got > eps && got != ref) {
					t.Errorf("rotate %d,%d,%d: bounded gain %v, exact %v", i, j, k, got, ref)
				}
			}
		}
	}
}

func TestBoundSharpTighterThanTight(t *testing.T) {
	l1, l2, _ := chainLogs()
	pr, err := BuildProblem(l1, l2, chainPatterns(t, l1), ModePattern)
	if err != nil {
		t.Fatal(err)
	}
	empty := NewMapping(l1.NumEvents())
	used := make([]bool, l2.NumEvents())
	bc := newBoundContext(pr, used)
	for i := range pr.patterns {
		pi := &pr.patterns[i]
		tight := bc.bound(pi, empty, false)
		sharp := bc.bound(pi, empty, true)
		if sharp > tight+1e-9 {
			t.Errorf("pattern %d: sharp %v > tight %v", i, sharp, tight)
		}
	}
}

// TestBestSim pins the bracket walk of the sharp vertex bound: over U2's
// vertex frequencies {0.1, 0.3, 0.8} (a fourth vertex, D, is used), the
// best similarity to f1 comes from the nearest U2 values on either side of
// f1, and those vertices are the witnesses.
func TestBestSim(t *testing.T) {
	traces := []string{"A B C D", "B C D", "B C D", "C D", "C D", "C D", "C D", "C D", "D", "D"}
	l2 := event.FromStrings(traces...)
	pr, err := BuildProblem(l2, l2, nil, ModeVertex)
	if err != nil {
		t.Fatal(err)
	}
	a := l2.Alphabet
	A, B, C, D := a.Lookup("A"), a.Lookup("B"), a.Lookup("C"), a.Lookup("D")
	used := make([]bool, l2.NumEvents())
	used[D] = true
	best := func(used []bool, f1 float64) (float64, witnesses) {
		vs := pr.G2.VerticesByFreq()
		pos := sort.Search(len(vs), func(k int) bool { return pr.G2.VertexFreq(vs[k]) >= f1 })
		w := noWitnesses
		return newBoundContext(pr, used).bestVertexSim(f1, pos, &w), w
	}
	f := pr.G2.VertexFreq
	for _, c := range []struct {
		name   string
		f1     float64
		want   float64
		up, dn event.ID
	}{
		{"exact hit", f(B), 1, B, A},
		{"between", 0.5, math.Max(Sim(0.5, f(B)), Sim(0.5, f(C))), C, B},
		{"below min", 0.05, Sim(0.05, f(A)), A, event.None},
		{"above max, past a used vertex", 0.9, Sim(0.9, f(C)), event.None, C},
	} {
		got, w := best(used, c.f1)
		if !approx(got, c.want) || w != (witnesses{c.up, c.dn, event.None, event.None}) {
			t.Errorf("%s: bestVertexSim(%v) = %v with witnesses %v, want %v with %v, %v",
				c.name, c.f1, got, w, c.want, c.up, c.dn)
		}
	}
	if got, w := best([]bool{true, true, true, true}, 0.5); got != 0 || w != noWitnesses {
		t.Errorf("empty U2 = %v with witnesses %v, want 0 with none", got, w)
	}
}
