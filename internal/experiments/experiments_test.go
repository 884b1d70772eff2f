package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"eventmatch/internal/match"
)

// small returns a scaled-down config so the full suite stays fast in CI;
// the cmd/experiments binary runs paper scale.
func small() Config {
	return Config{
		Seed:        7,
		Traces:      600,
		SynthTraces: 400,
		ExactBudget: 20 * time.Second,
		Runs:        12,
	}
}

func TestTable3(t *testing.T) {
	rows := Table3(small())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Name != "real" || rows[0].Events != 11 {
		t.Errorf("real row = %+v", rows[0])
	}
	if rows[1].Events != 100 || rows[1].Patterns != 16 {
		t.Errorf("synthetic row = %+v", rows[1])
	}
	if rows[2].Events != 4 || rows[2].Patterns != 0 {
		t.Errorf("random row = %+v", rows[2])
	}
	var buf bytes.Buffer
	PrintTable3(&buf, rows)
	if !strings.Contains(buf.String(), "synthetic") {
		t.Error("print output incomplete")
	}
}

func TestFig7SmallShape(t *testing.T) {
	cfg := small()
	points, err := overEventSizes(cfg, []int{4, 7}, exactApproaches(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if len(p.Results) != 6 {
			t.Fatalf("x=%d results = %d, want 6 approaches", p.X, len(p.Results))
		}
		ps, ok1 := p.Get(ApPatternSimple)
		pt, ok2 := p.Get(ApPatternTight)
		if !ok1 || !ok2 {
			t.Fatal("pattern approaches missing")
		}
		if ps.DNF || pt.DNF {
			t.Fatalf("x=%d: pattern approaches must finish at small sizes", p.X)
		}
		// Identical accuracy (both exact), tight generates no more nodes.
		if ps.FMeasure != pt.FMeasure {
			t.Errorf("x=%d: simple F %v != tight F %v", p.X, ps.FMeasure, pt.FMeasure)
		}
		if pt.Generated > ps.Generated {
			t.Errorf("x=%d: tight generated %d > simple %d", p.X, pt.Generated, ps.Generated)
		}
		sharp, ok3 := p.Get(ApPatternSharp)
		if !ok3 || sharp.DNF {
			t.Fatalf("x=%d: sharp missing or DNF", p.X)
		}
		if sharp.Generated > pt.Generated {
			t.Errorf("x=%d: sharp generated %d > tight %d", p.X, sharp.Generated, pt.Generated)
		}
		if sharp.FMeasure != pt.FMeasure {
			t.Errorf("x=%d: sharp F %v != tight F %v", p.X, sharp.FMeasure, pt.FMeasure)
		}
	}
	var buf bytes.Buffer
	PrintFigure(&buf, "Fig 7", "#events", points)
	for _, frag := range []string{"F-measure", "time", "# processed mappings"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("figure print missing %q", frag)
		}
	}
}

func TestFig9SmallShape(t *testing.T) {
	cfg := small()
	points, err := overEventSizes(cfg, []int{8, 11}, heuristicApproaches(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		exact, _ := p.Get(ApExact)
		adv, _ := p.Get(ApHeurAdvanced)
		simple, _ := p.Get(ApHeurSimple)
		if exact.DNF || adv.DNF || simple.DNF {
			t.Fatalf("x=%d: unexpected DNF", p.X)
		}
		// The headline claims: Heuristic-Advanced accuracy is at least
		// Heuristic-Simple's, and the heuristics process far fewer mappings
		// than Exact.
		if adv.FMeasure < simple.FMeasure {
			t.Errorf("x=%d: advanced F %v < simple F %v", p.X, adv.FMeasure, simple.FMeasure)
		}
		if adv.Generated >= exact.Generated {
			t.Errorf("x=%d: advanced generated %d >= exact %d", p.X, adv.Generated, exact.Generated)
		}
	}
}

// TestFig8SmallShape runs the exact approaches over trace counts at the
// full event set. Counts beyond the generated log are skipped, and the three
// exact pattern searches agree on accuracy at every count.
func TestFig8SmallShape(t *testing.T) {
	cfg := small()
	points, err := overTraceCounts(cfg, []int{150, 300, 10000}, exactApproaches(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].X != 150 || points[1].X != 300 {
		t.Fatalf("points at %v, want x = 150, 300 (10000 > %d traces is skipped)", xs(points), cfg.Traces)
	}
	for _, p := range points {
		if len(p.Results) != 6 {
			t.Fatalf("x=%d results = %d, want 6 approaches", p.X, len(p.Results))
		}
		tight, ok1 := p.Get(ApPatternTight)
		sharp, ok2 := p.Get(ApPatternSharp)
		if !ok1 || !ok2 || tight.DNF || sharp.DNF || tight.Truncated || sharp.Truncated {
			t.Fatalf("x=%d: exact pattern searches missing or unfinished: %+v %+v", p.X, tight, sharp)
		}
		if sharp.FMeasure != tight.FMeasure {
			t.Errorf("x=%d: sharp F %v != tight F %v", p.X, sharp.FMeasure, tight.FMeasure)
		}
		if sharp.Generated > tight.Generated {
			t.Errorf("x=%d: sharp generated %d > tight %d", p.X, sharp.Generated, tight.Generated)
		}
	}
}

// TestFig10SmallShape runs the heuristics over trace counts: on the head
// of the log, as on the full log, Heuristic-Advanced processes fewer
// mappings than Exact and is at least as accurate as Heuristic-Simple.
func TestFig10SmallShape(t *testing.T) {
	cfg := small()
	points, err := overTraceCounts(cfg, []int{200, 600}, heuristicApproaches(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points at %v, want x = 200, 600", xs(points))
	}
	for _, p := range points {
		exact, _ := p.Get(ApExact)
		adv, _ := p.Get(ApHeurAdvanced)
		simple, _ := p.Get(ApHeurSimple)
		if exact.DNF || adv.DNF || simple.DNF {
			t.Fatalf("x=%d: unexpected DNF", p.X)
		}
		if adv.FMeasure < simple.FMeasure {
			t.Errorf("x=%d: advanced F %v < simple F %v", p.X, adv.FMeasure, simple.FMeasure)
		}
		if adv.Generated >= exact.Generated {
			t.Errorf("x=%d: advanced generated %d >= exact %d", p.X, adv.Generated, exact.Generated)
		}
	}
}

// TestHeadBoth checks that a trace-count point takes the head of both logs
// and keeps the full problem's truth and patterns.
func TestHeadBoth(t *testing.T) {
	full := realLike(small())
	h := headBoth(full, 50)
	if h.L1.NumTraces() != 50 || h.L2.NumTraces() != 50 {
		t.Fatalf("head has %d/%d traces, want 50", h.L1.NumTraces(), h.L2.NumTraces())
	}
	for i := 0; i < 50; i++ {
		if h.L1.Traces[i].String(h.L1.Alphabet) != full.L1.Traces[i].String(full.L1.Alphabet) ||
			h.L2.Traces[i].String(h.L2.Alphabet) != full.L2.Traces[i].String(full.L2.Alphabet) {
			t.Fatalf("trace %d differs from the full log's", i)
		}
	}
	if strings.Join(h.Patterns, ";") != strings.Join(full.Patterns, ";") || len(h.Truth) != len(full.Truth) {
		t.Fatal("head lost the truth or the patterns")
	}
	for i := range h.Truth {
		if h.Truth[i] != full.Truth[i] {
			t.Fatalf("truth[%d] = %v, want %v", i, h.Truth[i], full.Truth[i])
		}
	}
}

func xs(points []Point) []int {
	var out []int
	for _, p := range points {
		out = append(out, p.X)
	}
	return out
}

func TestFig12SmallShape(t *testing.T) {
	cfg := small()
	// One small block count only; the full sweep runs in cmd/experiments.
	g := largeSynthetic(cfg, 2)
	in, err := prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	adv := in.runAdvanced(cfg.ExactBudget, match.Options{})
	vertex := in.runVertexAssign()
	iter := in.runIterative()
	entropy := in.runEntropy()
	if adv.DNF {
		t.Fatal("advanced DNF")
	}
	if adv.FMeasure < vertex.FMeasure || adv.FMeasure < iter.FMeasure || adv.FMeasure < entropy.FMeasure {
		t.Errorf("advanced F %v must beat baselines (v=%v i=%v e=%v)",
			adv.FMeasure, vertex.FMeasure, iter.FMeasure, entropy.FMeasure)
	}
}

func TestTable4SmallUniformish(t *testing.T) {
	rows, err := Table4(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("rows = %d; random logs should yield varied mappings", len(rows))
	}
	totalExact := 0
	for _, r := range rows {
		totalExact += r.Exact
	}
	if totalExact != small().Runs {
		t.Errorf("exact counts sum to %d, want %d", totalExact, small().Runs)
	}
	var buf bytes.Buffer
	PrintTable4(&buf, rows)
	if !strings.Contains(buf.String(), "chi^2") {
		t.Error("table 4 print incomplete")
	}
}

func TestAblationBounds(t *testing.T) {
	rows, err := AblationBounds(small(), []int{6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var simple, tight, sharp, noProp3 Result
	for _, r := range rows {
		switch r.Variant {
		case "simple-bound":
			simple = r.Result
		case "tight-bound":
			tight = r.Result
		case "sharp-bound":
			sharp = r.Result
		case "tight-no-prop3":
			noProp3 = r.Result
		}
	}
	if tight.Generated > simple.Generated {
		t.Errorf("tight generated %d > simple %d", tight.Generated, simple.Generated)
	}
	if sharp.Generated > tight.Generated {
		t.Errorf("sharp generated %d > tight %d", sharp.Generated, tight.Generated)
	}
	if simple.FMeasure != tight.FMeasure || tight.FMeasure != noProp3.FMeasure || tight.FMeasure != sharp.FMeasure {
		t.Errorf("all exact variants must agree on accuracy: %v %v %v %v",
			simple.FMeasure, tight.FMeasure, sharp.FMeasure, noProp3.FMeasure)
	}
	var buf bytes.Buffer
	PrintAblation(&buf, "bounds", rows)
	if !strings.Contains(buf.String(), "tight-bound") {
		t.Error("ablation print incomplete")
	}
}

func TestAblationOrder(t *testing.T) {
	rows, err := AblationOrder(small(), []int{7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Result.FMeasure != rows[1].Result.FMeasure {
		t.Errorf("expansion order must not change the optimum: %v vs %v",
			rows[0].Result.FMeasure, rows[1].Result.FMeasure)
	}
}

func TestAblationHeuristic(t *testing.T) {
	rows, err := AblationHeuristic(small(), []int{11})
	if err != nil {
		t.Fatal(err)
	}
	var full, bare Result
	for _, r := range rows {
		switch r.Variant {
		case "full":
			full = r.Result
		case "bare-alg3":
			bare = r.Result
		}
	}
	if full.FMeasure < bare.FMeasure {
		t.Errorf("full heuristic F %v < bare F %v — refinements should help", full.FMeasure, bare.FMeasure)
	}
}

func TestAblationTraceIndex(t *testing.T) {
	tm, err := AblationTraceIndex(small(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Direct <= 0 || tm.Indexed <= 0 {
		t.Errorf("timings = %+v", tm)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Traces != 3000 || c.SynthTraces != 10000 || c.Runs != 1000 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestRobustnessSweep(t *testing.T) {
	rows, err := RobustnessSweep(small(), []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// At scale 0 (sampling noise only, 600 traces) every structural
	// approach should be strong; pattern matching must not lose to
	// vertex+edge at the calibrated divergence.
	for _, row := range rows {
		pat, ok1 := row.Results[0], row.Results[0].Approach == ApPatternSharp
		ve, ok2 := Result{}, false
		for _, r := range row.Results {
			if r.Approach == ApVertexEdge {
				ve, ok2 = r, true
			}
		}
		if !ok1 || !ok2 {
			t.Fatal("approaches missing")
		}
		if pat.FMeasure < ve.FMeasure {
			t.Errorf("scale %v: pattern F %v < vertex+edge F %v", row.Scale, pat.FMeasure, ve.FMeasure)
		}
	}
	var buf bytes.Buffer
	PrintRobustness(&buf, rows)
	if !strings.Contains(buf.String(), "Robustness") {
		t.Error("print incomplete")
	}
}

func TestRealLikeDivergenceScaleZeroSameParams(t *testing.T) {
	rows, err := RobustnessSweep(small(), []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Scale != 0 {
		t.Fatal("scale mangled")
	}
}
