package process

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"eventmatch/internal/depgraph"
	"eventmatch/internal/pattern"
)

// orderModel is a small order-handling process used across the tests.
func orderModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(Seq{
		Activity("Receive"),
		Optional{P: 0.9, Node: Activity("Approve")},
		Parallel{Activity("Pay"), Activity("Check")},
		Choice{
			{Weight: 0.8, Node: Seq{Activity("Produce"), Activity("QA")}},
			{Weight: 0.2, Node: Activity("Restock")},
		},
		Loop{Again: 0.2, MaxExtra: 2, Node: Activity("Audit")},
		Activity("Ship"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelActivities(t *testing.T) {
	m := orderModel(t)
	want := []string{"Receive", "Approve", "Pay", "Check", "Produce", "QA", "Restock", "Audit", "Ship"}
	if got := m.Activities(); !reflect.DeepEqual(got, want) {
		t.Errorf("activities = %v, want %v", got, want)
	}
}

func TestNewModelValidation(t *testing.T) {
	cases := []struct {
		name string
		node Node
	}{
		{"nil root", nil},
		{"empty seq", Seq{}},
		{"empty activity", Activity("")},
		{"one-branch parallel", Parallel{Activity("A")}},
		{"one-branch choice", Choice{{Weight: 1, Node: Activity("A")}}},
		{"zero-weight choice", Choice{{Weight: 0, Node: Activity("A")}, {Weight: 1, Node: Activity("B")}}},
		{"bad optional p", Optional{P: 2, Node: Activity("A")}},
		{"nil optional node", Optional{P: 0.5}},
		{"bad loop p", Loop{Again: -1, Node: Activity("A")}},
		{"negative loop extra", Loop{Again: 0.5, MaxExtra: -1, Node: Activity("A")}},
		{"nil loop node", Loop{Again: 0.5}},
		{"duplicate activity", Seq{Activity("A"), Activity("A")}},
	}
	for _, c := range cases {
		if _, err := NewModel(c.node); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	m := orderModel(t)
	a := m.Simulate(3, 50, Params{})
	b := m.Simulate(3, 50, Params{})
	if !reflect.DeepEqual(a.Traces, b.Traces) {
		t.Error("same seed must reproduce traces")
	}
	c := m.Simulate(4, 50, Params{})
	if reflect.DeepEqual(a.Traces, c.Traces) {
		t.Error("different seeds should differ")
	}
}

func TestSimulateStructure(t *testing.T) {
	m := orderModel(t)
	l := m.Simulate(7, 4000, Params{})
	a := l.Alphabet
	freq := l.Frequency()
	// Receive and Ship always occur.
	for _, name := range []string{"Receive", "Ship"} {
		if f := freq[a.Lookup(name)]; f != 1.0 {
			t.Errorf("f(%s) = %v, want 1.0", name, f)
		}
	}
	// Approve ~0.9, Produce ~0.8, Restock ~0.2 (within sampling noise).
	approxF := func(name string, want, tol float64) {
		if f := freq[a.Lookup(name)]; math.Abs(f-want) > tol {
			t.Errorf("f(%s) = %v, want ~%v", name, f, want)
		}
	}
	approxF("Approve", 0.9, 0.03)
	approxF("Produce", 0.8, 0.03)
	approxF("Restock", 0.2, 0.03)
	// Parallel: AND(Pay,Check) must be contiguous in every trace.
	p, err := pattern.ParseBind("AND(Pay,Check)", a)
	if err != nil {
		t.Fatal(err)
	}
	if f := p.Frequency(l); f != 1.0 {
		t.Errorf("AND(Pay,Check) frequency = %v, want 1.0", f)
	}
	// Both orders must actually occur.
	g := depgraph.Build(l)
	if !g.HasEdge(a.Lookup("Pay"), a.Lookup("Check")) || !g.HasEdge(a.Lookup("Check"), a.Lookup("Pay")) {
		t.Error("both Pay/Check orders should occur")
	}
}

func TestChoiceExclusive(t *testing.T) {
	m := orderModel(t)
	l := m.Simulate(9, 2000, Params{})
	a := l.Alphabet
	produce, restock := a.Lookup("Produce"), a.Lookup("Restock")
	for i, tr := range l.Traces {
		hasP, hasR := slices.Contains(tr, produce), slices.Contains(tr, restock)
		if hasP == hasR {
			t.Fatalf("trace %d: choice not exclusive (produce=%v restock=%v)", i, hasP, hasR)
		}
	}
}

func TestLoopRepeats(t *testing.T) {
	m := orderModel(t)
	l := m.Simulate(5, 3000, Params{})
	audit := l.Alphabet.Lookup("Audit")
	maxCount := 0
	for _, tr := range l.Traces {
		n := 0
		for _, e := range tr {
			if e == audit {
				n++
			}
		}
		if n < 1 || n > 3 {
			t.Fatalf("audit count %d outside [1,3]", n)
		}
		if n > maxCount {
			maxCount = n
		}
	}
	if maxCount < 2 {
		t.Error("loop never repeated in 3000 traces")
	}
}

func TestOrderBias(t *testing.T) {
	m, err := NewModel(Parallel{Activity("A"), Activity("B")})
	if err != nil {
		t.Fatal(err)
	}
	count := func(bias float64) float64 {
		l := m.Simulate(11, 4000, Params{OrderBias: bias})
		a := l.Alphabet.Lookup("A")
		first := 0
		for _, tr := range l.Traces {
			if tr[0] == a {
				first++
			}
		}
		return float64(first) / float64(len(l.Traces))
	}
	uniform := count(0)
	favoured := count(1.5)
	inverted := count(-0.9)
	if math.Abs(uniform-0.5) > 0.05 {
		t.Errorf("uniform P(A first) = %v, want ~0.5", uniform)
	}
	if favoured < 0.6 {
		t.Errorf("biased P(A first) = %v, want > 0.6", favoured)
	}
	if inverted > 0.4 {
		t.Errorf("inverted P(A first) = %v, want < 0.4", inverted)
	}
}

func TestSwapNoise(t *testing.T) {
	m, err := NewModel(Seq{Activity("A"), Activity("B"), Activity("C")})
	if err != nil {
		t.Fatal(err)
	}
	l := m.Simulate(13, 2000, Params{SwapNoise: 0.5})
	a := l.Alphabet
	g := depgraph.Build(l)
	// Swaps create reversed adjacencies somewhere.
	if !g.HasEdge(a.Lookup("C"), a.Lookup("B")) && !g.HasEdge(a.Lookup("B"), a.Lookup("A")) {
		t.Error("swap noise produced no reversed edges in 2000 traces")
	}
}

// Property: every simulated trace contains only model activities and every
// trace respects Choice exclusivity at the top level of the test model.
func TestSimulationWithinAlphabetProperty(t *testing.T) {
	f := func(seed int64) bool {
		m, err := NewModel(Seq{
			Activity("S"),
			Parallel{Activity("P1"), Activity("P2"), Activity("P3")},
			Optional{P: 0.5, Node: Activity("O")},
			Activity("E"),
		})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		l := m.Simulate(rng.Int63(), 30, Params{SwapNoise: 0.2, OrderBias: rng.Float64()})
		if l.Validate() != nil {
			return false
		}
		for _, tr := range l.Traces {
			if len(tr) < 5 || len(tr) > 6 {
				return false
			}
		}
		return l.NumEvents() == 6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBiasedPermIsPermutation(t *testing.T) {
	f := func(seed int64, biasRaw int8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		bias := float64(biasRaw) / 32
		perm := biasedPerm(rng, n, bias)
		if len(perm) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range perm {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
