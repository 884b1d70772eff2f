package match

import (
	"testing"

	"eventmatch/internal/event"
)

// newBoundContext builds a fresh bound context for the unmapped target set
// encoded in used.
func newBoundContext(pr *Problem, used []bool) *boundContext {
	bc := &boundContext{}
	bc.reset(pr, used)
	return bc
}

// bound returns patternBound's value alone.
func (bc *boundContext) bound(pi *pinfo, m Mapping, sharp bool) float64 {
	var w witnesses
	h, _ := bc.patternBound(pi, m, sharp, &w)
	return h
}

// TestBoundContextMaxFreqs pins the fn and fe terms of Algorithm 2 on the
// paper's Fig. 1 L1 used as the target log: fnU2 is the highest vertex
// frequency in U2 and feU2 the highest edge frequency in the subgraph U2
// induces, both 0 when U2 has no vertex, respectively no induced edge.
func TestBoundContextMaxFreqs(t *testing.T) {
	l2 := event.FromStrings(
		"A B C D E",
		"A C B D F",
		"A B C D E",
		"A C B D F",
		"A B C D E",
	)
	pr, err := BuildProblem(l2, l2, nil, ModeVertex)
	if err != nil {
		t.Fatal(err)
	}
	a := l2.Alphabet
	for _, c := range []struct {
		name   string
		u2     []string
		fn, fe float64
		numU2  int
	}{
		{"all", []string{"A", "B", "C", "D", "E", "F"}, 1.0, 0.6, 6},
		{"none", nil, 0, 0, 0},
		{"E,F", []string{"E", "F"}, 0.6, 0, 2}, // no edge joins E and F
		{"B,C", []string{"B", "C"}, 1.0, 0.6, 2},
	} {
		used := make([]bool, l2.NumEvents())
		for i := range used {
			used[i] = true
		}
		for _, name := range c.u2 {
			used[a.Lookup(name)] = false
		}
		bc := newBoundContext(pr, used)
		fn, fe := bc.maxFreqs()
		if !approx(fn, c.fn) || !approx(fe, c.fe) || bc.numU2() != c.numU2 {
			t.Errorf("U2 = %s: fnU2 %v feU2 %v |U2| %d, want %v %v %d",
				c.name, fn, fe, bc.numU2(), c.fn, c.fe, c.numU2)
		}
	}
}
