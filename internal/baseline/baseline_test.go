package baseline

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"eventmatch/internal/event"
	"eventmatch/internal/match"
)

func twoLogs() (*event.Log, *event.Log) {
	l1 := event.FromStrings(
		"A B C D E",
		"A C B D F",
		"A B C D E",
		"A C B D F",
		"A B C D E",
	)
	l2 := event.FromStrings(
		"a3 a4 a5 a6 a7",
		"a3 a5 a4 a6 a8",
		"a3 a4 a5 a6 a7",
		"a3 a5 a4 a6 a8",
		"a3 a4 a5 a6 a7",
	)
	return l1, l2
}

func TestVertexOptimality(t *testing.T) {
	l1, l2 := twoLogs()
	res, err := Vertex(l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	// The vertex-form optimum must equal the brute-force optimum of the
	// vertex-mode problem (Theorem 2).
	pr, err := match.BuildProblem(l1, l2, nil, match.ModeVertex)
	if err != nil {
		t.Fatal(err)
	}
	_, bf := pr.BruteForce()
	if math.Abs(res.Score-bf) > 1e-9 {
		t.Errorf("vertex assignment score %v != brute force %v", res.Score, bf)
	}
	if !res.Mapping.Complete() {
		t.Errorf("mapping incomplete: %v", res.Mapping)
	}
}

func TestVertexOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l1 := randomLog(rng, 2+rng.Intn(4), 3+rng.Intn(10))
		l2 := randomLog(rng, 2+rng.Intn(4), 3+rng.Intn(10))
		res, err := Vertex(l1, l2)
		if err != nil {
			return false
		}
		pr, err := match.BuildProblem(l1, l2, nil, match.ModeVertex)
		if err != nil {
			return false
		}
		_, bf := pr.BruteForce()
		return math.Abs(res.Score-bf) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIterativeConverges(t *testing.T) {
	l1, l2 := twoLogs()
	res, err := Iterative(l1, l2, IterativeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mapping.Complete() {
		t.Errorf("mapping incomplete: %v", res.Mapping)
	}
	if res.Score <= 0 {
		t.Errorf("score = %v, want positive", res.Score)
	}
}

func TestIterativeIdenticalLogs(t *testing.T) {
	// Matching a structurally identical renamed log: the propagation scores
	// of the true pairs must be maximal (1.0 similarity everywhere on the
	// true diagonal), so the assignment recovers a perfect-score mapping.
	l1, l2 := twoLogs()
	res, err := Iterative(l1, l2, IterativeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Score-float64(l1.NumEvents())) > 1e-6 {
		t.Errorf("identical-structure score = %v, want %d", res.Score, l1.NumEvents())
	}
}

func TestIterativeBadAlpha(t *testing.T) {
	l1, l2 := twoLogs()
	if _, err := Iterative(l1, l2, IterativeOptions{Alpha: 1.5}); err == nil {
		t.Error("alpha >= 1 must fail")
	}
	if _, err := Iterative(l1, l2, IterativeOptions{Alpha: -0.5}); err == nil {
		t.Error("negative alpha must fail")
	}
}

func TestEntropy(t *testing.T) {
	l1, l2 := twoLogs()
	res, err := Entropy(l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mapping.Complete() {
		t.Errorf("mapping incomplete: %v", res.Mapping)
	}
}

func TestBinaryEntropy(t *testing.T) {
	if binaryEntropy(0) != 0 || binaryEntropy(1) != 0 {
		t.Error("degenerate entropies must be 0")
	}
	if math.Abs(binaryEntropy(0.5)-1) > 1e-12 {
		t.Errorf("H(0.5) = %v, want 1", binaryEntropy(0.5))
	}
	if math.Abs(binaryEntropy(0.25)-binaryEntropy(0.75)) > 1e-12 {
		t.Error("entropy must be symmetric around 0.5")
	}
}

func TestEntropyIgnoresStructure(t *testing.T) {
	// Two logs with identical appearance frequencies but different orders:
	// entropy similarity matrix is all-ones on the diagonal pairing, yet the
	// method cannot distinguish events with equal frequency — exactly the
	// weakness the paper describes.
	l1 := event.FromStrings("A B", "A B", "A", "B")
	l2 := event.FromStrings("y x", "x y", "x", "y")
	res, err := Entropy(l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	// All four events have frequency 0.75 → identical entropies → any
	// assignment scores 2.0 (1.0 per pair).
	if math.Abs(res.Score-2.0) > 1e-9 {
		t.Errorf("score = %v, want 2.0", res.Score)
	}
}

func TestNeighbourSim(t *testing.T) {
	sim := [][]float64{{1, 0}, {0, 1}}
	if got := neighbourSim(nil, nil, sim); got != 1 {
		t.Errorf("both empty = %v, want 1", got)
	}
	if got := neighbourSim([]event.ID{0}, nil, sim); got != 0 {
		t.Errorf("one empty = %v, want 0", got)
	}
	if got := neighbourSim([]event.ID{0, 1}, []event.ID{0, 1}, sim); got != 1 {
		t.Errorf("perfect neighbours = %v, want 1", got)
	}
	if got := neighbourSim([]event.ID{0}, []event.ID{1}, sim); got != 0 {
		t.Errorf("mismatched neighbours = %v, want 0", got)
	}
}

// Property: all three baselines return injective mappings with scores within
// [0, min(n1,n2)].
func TestBaselinesSanityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l1 := randomLog(rng, 2+rng.Intn(4), 3+rng.Intn(12))
		l2 := randomLog(rng, 2+rng.Intn(4), 3+rng.Intn(12))
		min := l1.NumEvents()
		if l2.NumEvents() < min {
			min = l2.NumEvents()
		}
		run := []func() (Result, error){
			func() (Result, error) { return Vertex(l1, l2) },
			func() (Result, error) { return Iterative(l1, l2, IterativeOptions{}) },
			func() (Result, error) { return Entropy(l1, l2) },
		}
		for _, r := range run {
			res, err := r()
			if err != nil {
				return false
			}
			seen := map[event.ID]bool{}
			mapped := 0
			for _, v2 := range res.Mapping {
				if v2 == event.None {
					continue
				}
				if seen[v2] {
					return false
				}
				seen[v2] = true
				mapped++
			}
			if mapped != min {
				return false
			}
			if res.Score < -1e-9 || res.Score > float64(min)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
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

// TestVertexContextStopped checks the anytime contract of VertexContext: a
// context that is already done yields a complete, injective mapping rounded
// from an all-zero weight matrix, flagged truncated with the match package's
// stop reason.
func TestVertexContextStopped(t *testing.T) {
	l1, l2 := twoLogs()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want string
	}{
		{"canceled", canceled, match.StopCanceled},
		{"deadline", expired, match.StopDeadline},
	} {
		res, err := VertexContext(tc.ctx, l1, l2)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Truncated || res.StopReason != tc.want {
			t.Errorf("%s: Truncated=%v StopReason=%q, want true %q", tc.name, res.Truncated, res.StopReason, tc.want)
		}
		if len(res.Mapping) != l1.NumEvents() || !res.Mapping.Complete() {
			t.Errorf("%s: mapping %v is not complete over %d events", tc.name, res.Mapping, l1.NumEvents())
		}
		seen := map[event.ID]bool{}
		for _, v2 := range res.Mapping {
			if seen[v2] {
				t.Errorf("%s: mapping %v is not injective", tc.name, res.Mapping)
			}
			seen[v2] = true
		}
		if res.Score != 0 {
			t.Errorf("%s: score %v from an unfilled matrix, want 0", tc.name, res.Score)
		}
	}
	full, err := VertexContext(context.Background(), l1, l2)
	if err != nil || full.Truncated || full.StopReason != "" {
		t.Fatalf("live context: truncated=%v reason=%q err=%v", full.Truncated, full.StopReason, err)
	}
}

// TestFillRemaining checks that the unfilled tail rows of a weight matrix
// are allocated at the matrix's width, whether the stop row itself was
// allocated or not, and that filled rows are left alone.
func TestFillRemaining(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    [][]float64
		from int
		cols int
	}{
		{"stop row allocated", [][]float64{make([]float64, 3), nil, nil}, 0, 3},
		{"stop row nil", [][]float64{{1, 2, 3, 4}, nil, nil}, 1, 4},
		{"last row allocated", [][]float64{{1, 2}, {0, 0}}, 1, 2},
		{"nothing left", [][]float64{{1, 2}}, 1, 2},
	} {
		before := make([][]float64, len(tc.w))
		for i, row := range tc.w {
			before[i] = append([]float64(nil), row...)
		}
		fillRemaining(tc.w, tc.from)
		for i, row := range tc.w {
			if len(row) != tc.cols {
				t.Errorf("%s: row %d has %d columns, want %d", tc.name, i, len(row), tc.cols)
			}
			for j, x := range row {
				if j < len(before[i]) && x != before[i][j] {
					t.Errorf("%s: row %d col %d changed %v → %v", tc.name, i, j, before[i][j], x)
				}
				if j >= len(before[i]) && x != 0 {
					t.Errorf("%s: filled row %d col %d = %v, want 0", tc.name, i, j, x)
				}
			}
		}
	}
}
