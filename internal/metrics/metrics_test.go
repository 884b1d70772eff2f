package metrics

import (
	"math"
	"testing"

	"eventmatch/internal/event"
	"eventmatch/internal/match"
)

func m(ids ...int) match.Mapping {
	out := make(match.Mapping, len(ids))
	for i, v := range ids {
		out[i] = event.ID(v)
	}
	return out
}

func TestEvaluatePerfect(t *testing.T) {
	truth := m(2, 0, 1)
	q := Evaluate(truth, truth)
	if q.Precision != 1 || q.Recall != 1 || q.FMeasure != 1 || q.Correct != 3 {
		t.Errorf("q = %+v", q)
	}
}

func TestEvaluatePartial(t *testing.T) {
	truth := m(0, 1, 2, 3)
	found := m(0, 1, 3, 2) // two right, two swapped
	q := Evaluate(found, truth)
	if q.Correct != 2 || q.Found != 4 || q.Truth != 4 {
		t.Fatalf("counts = %+v", q)
	}
	if q.Precision != 0.5 || q.Recall != 0.5 || q.FMeasure != 0.5 {
		t.Errorf("q = %+v", q)
	}
}

func TestEvaluateUnmappedEntries(t *testing.T) {
	truth := m(0, 1, 2)
	found := match.Mapping{0, event.None, 2}
	q := Evaluate(found, truth)
	if q.Correct != 2 || q.Found != 2 || q.Truth != 3 {
		t.Fatalf("counts = %+v", q)
	}
	if q.Precision != 1.0 || math.Abs(q.Recall-2.0/3.0) > 1e-12 {
		t.Errorf("q = %+v", q)
	}
	wantF := 2 * 1.0 * (2.0 / 3.0) / (1.0 + 2.0/3.0)
	if math.Abs(q.FMeasure-wantF) > 1e-12 {
		t.Errorf("F = %v, want %v", q.FMeasure, wantF)
	}
}

func TestEvaluateDisjoint(t *testing.T) {
	q := Evaluate(m(1, 0), m(0, 1))
	if q.Correct != 0 || q.Precision != 0 || q.Recall != 0 || q.FMeasure != 0 {
		t.Errorf("q = %+v", q)
	}
}

func TestEvaluateEmptyMappings(t *testing.T) {
	q := Evaluate(match.NewMapping(3), match.NewMapping(3))
	if q.FMeasure != 0 || q.Precision != 0 || q.Recall != 0 {
		t.Errorf("q = %+v", q)
	}
}

func TestEvaluateDifferentLengths(t *testing.T) {
	// found shorter than truth: extra truth entries count toward recall only.
	truth := m(0, 1, 2)
	found := m(0, 1)
	q := Evaluate(found, truth)
	if q.Correct != 2 || q.Found != 2 || q.Truth != 3 {
		t.Errorf("q = %+v", q)
	}
	if q.Precision != 1.0 || math.Abs(q.Recall-2.0/3.0) > 1e-12 {
		t.Errorf("q = %+v", q)
	}
}

func TestEvaluateFoundLongerThanTruth(t *testing.T) {
	// found longer than truth: entries beyond the truth's length are claims
	// the truth cannot confirm — they count toward Found (lowering
	// precision) but can never be Correct.
	truth := m(0, 1)
	found := m(0, 1, 2, 3)
	q := Evaluate(found, truth)
	if q.Correct != 2 || q.Found != 4 || q.Truth != 2 {
		t.Fatalf("counts = %+v", q)
	}
	if q.Precision != 0.5 || q.Recall != 1.0 {
		t.Errorf("q = %+v", q)
	}
	wantF := 2 * 0.5 * 1.0 / (0.5 + 1.0)
	if math.Abs(q.FMeasure-wantF) > 1e-12 {
		t.Errorf("F = %v, want %v", q.FMeasure, wantF)
	}
}

func TestEvaluateZeroLengthSides(t *testing.T) {
	// A zero-length side must never divide by zero or emit NaN.
	cases := []struct {
		name         string
		found, truth match.Mapping
		wantFound    int
		wantTruth    int
	}{
		{"empty found", match.Mapping{}, m(0, 1), 0, 2},
		{"empty truth", m(0, 1), match.Mapping{}, 2, 0},
		{"both empty", match.Mapping{}, match.Mapping{}, 0, 0},
		{"nil found", nil, m(0, 1), 0, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := Evaluate(tc.found, tc.truth)
			if q.Correct != 0 || q.Found != tc.wantFound || q.Truth != tc.wantTruth {
				t.Fatalf("counts = %+v", q)
			}
			for name, v := range map[string]float64{
				"precision": q.Precision, "recall": q.Recall, "f": q.FMeasure,
			} {
				if v != 0 || math.IsNaN(v) {
					t.Errorf("%s = %v, want 0", name, v)
				}
			}
		})
	}
}

func TestEvaluateUnmappedBeyondPrefix(t *testing.T) {
	// Unmapped (None) entries beyond the common prefix are ignored entirely:
	// an anytime run that left the tail unmapped is penalized on recall for
	// what it missed, not on precision for pairs it never claimed.
	truth := m(0, 1, 2, 3)
	found := match.Mapping{0, 1, event.None, event.None}[:4]
	q := Evaluate(found, truth)
	if q.Correct != 2 || q.Found != 2 || q.Truth != 4 {
		t.Fatalf("counts = %+v", q)
	}
	if q.Precision != 1.0 || q.Recall != 0.5 {
		t.Errorf("q = %+v", q)
	}
}
