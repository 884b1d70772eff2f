package match

import (
	"context"
	"testing"

	"eventmatch/internal/event"
	"eventmatch/internal/pattern"
)

// splitLogs models the 1-to-n scenario: L1 logs a single Pay step; L2 splits
// it into PayCash / PayCard (never both in one trace).
func splitLogs() (*event.Log, *event.Log) {
	l1 := event.FromStrings(
		"Receive Pay Ship",
		"Receive Pay Ship",
		"Receive Pay Ship",
		"Receive Pay Ship",
	)
	l2 := event.FromStrings(
		"SD CASH FH",
		"SD CARD FH",
		"SD CASH FH",
		"SD CARD FH",
	)
	return l1, l2
}

func splitPattern(t *testing.T, l1 *event.Log) []*pattern.Pattern {
	t.Helper()
	p, err := pattern.ParseBind("SEQ(Receive,Pay,Ship)", l1.Alphabet)
	if err != nil {
		t.Fatal(err)
	}
	return []*pattern.Pattern{p}
}

func TestExtendOneToNGroupsSplitEvent(t *testing.T) {
	l1, l2 := splitLogs()
	pr, err := BuildProblem(l1, l2, splitPattern(t, l1), ModePattern)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := pr.AStar(Options{Bound: BoundSharp})
	if err != nil {
		t.Fatal(err)
	}
	// 1-1 matching covers only three of four L2 events; one payment variant
	// stays unmapped and the pattern's L2 frequency is only 0.5.
	before, err := pr.SetDistance(FromMapping(m))
	if err != nil {
		t.Fatal(err)
	}
	sm, st, err := pr.ExtendOneToNContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Score < before {
		t.Errorf("extension lowered score: %v -> %v", before, st.Score)
	}
	pay := l1.Alphabet.Lookup("Pay")
	if len(sm[pay]) != 2 {
		t.Fatalf("Pay images = %v, want both payment variants", sm[pay])
	}
	names := map[string]bool{}
	for _, v2 := range sm[pay] {
		names[l2.Alphabet.Name(v2)] = true
	}
	if !names["CASH"] || !names["CARD"] {
		t.Errorf("Pay mapped to %v, want CASH and CARD", names)
	}
	// With both variants merged, the pattern holds in every L2 trace.
	after, err := pr.SetDistance(sm)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Errorf("merged score %v should exceed injective score %v", after, before)
	}
}

func TestSetDistanceIdentityOnEqualLogs(t *testing.T) {
	l1, _ := splitLogs()
	pr, err := BuildProblem(l1, l1, splitPattern(t, l1), ModePattern)
	if err != nil {
		t.Fatal(err)
	}
	identity := NewMapping(l1.NumEvents())
	for i := range identity {
		identity[i] = event.ID(i)
	}
	d, err := pr.SetDistance(FromMapping(identity))
	if err != nil {
		t.Fatal(err)
	}
	// Identity on identical logs: every pattern matches perfectly.
	if want := float64(pr.NumPatterns()); !approx(d, want) {
		t.Errorf("SetDistance = %v, want %v", d, want)
	}
}

func TestSetDistanceAgreesWithInjectiveDistance(t *testing.T) {
	l1, l2, _ := fig1Logs()
	pr, err := BuildProblem(l1, l2, []*pattern.Pattern{paperPattern(t, l1)}, ModePattern)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := pr.AStar(Options{Bound: BoundSharp})
	if err != nil {
		t.Fatal(err)
	}
	d1 := pr.Distance(m)
	d2, err := pr.SetDistance(FromMapping(m))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(d1, d2) {
		t.Errorf("injective %v != singleton-set %v", d1, d2)
	}
}

func TestTranslateL2NameCollision(t *testing.T) {
	// L2 reuses an L1 name for a DIFFERENT unmapped event: translation must
	// not alias them.
	l1 := event.FromStrings("A B", "A B")
	l2 := event.FromStrings("x A", "x A") // L2's "A" is unrelated to L1's
	p, err := pattern.ParseBind("SEQ(A,B)", l1.Alphabet)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := BuildProblem(l1, l2, []*pattern.Pattern{p}, ModePattern)
	if err != nil {
		t.Fatal(err)
	}
	sm := SetMapping{{l2.Alphabet.Lookup("x")}, nil} // A -> x only
	translated := pr.translateL2(sm)
	// Translated trace should be "A <something-not-B-and-not-A-l1>".
	tr := translated.Traces[0]
	if translated.Alphabet.Name(tr[0]) != "A" {
		t.Errorf("first event = %q, want A", translated.Alphabet.Name(tr[0]))
	}
	if translated.Alphabet.Name(tr[1]) == "A" {
		t.Error("L2's unrelated 'A' aliased L1's A")
	}
}

func TestExtendOneToNNoUnassigned(t *testing.T) {
	l1, l2, _ := fig1Logs()
	pr, err := BuildProblem(l1, l2, nil, ModeVertexEdge)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := pr.AStar(Options{Bound: BoundSharp})
	if err != nil {
		t.Fatal(err)
	}
	sm, _, err := pr.ExtendOneToNContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Extension may or may not absorb L2's two extra bookkeeping events,
	// but it must keep the sets disjoint and all original pairs intact.
	seen := map[event.ID]bool{}
	for _, set := range sm {
		for _, v2 := range set {
			if seen[v2] {
				t.Fatalf("target %d in two sets", v2)
			}
			seen[v2] = true
		}
	}
	for v1, v2 := range m {
		if v2 == event.None {
			continue
		}
		found := false
		for _, x := range sm[v1] {
			if x == v2 {
				found = true
			}
		}
		if !found {
			t.Errorf("original pair %d->%d lost", v1, v2)
		}
	}
}

func TestExtendOneToNBadMapping(t *testing.T) {
	l1, l2, _ := fig1Logs()
	pr, err := BuildProblem(l1, l2, nil, ModeVertex)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pr.ExtendOneToNContext(context.Background(), NewMapping(2), Options{}); err == nil {
		t.Error("short mapping must fail")
	}
}
