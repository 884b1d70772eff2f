package match_test

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"eventmatch/internal/gen"
	"eventmatch/internal/match"
	"eventmatch/internal/telemetry"
)

// TestAnytimeIncumbent checks the incumbent the three searches share, on an
// instance where every search's first checkpoint snapshot scores below its
// own final result:
//   - seeded with its own unseeded result and checkpointing at every poll,
//     a search emits only checkpoints strictly above the seed, and returns
//     the unseeded mapping and score bit for bit;
//   - the search.final_score_x1e6 gauge is the returned mapping's Distance
//     in clean, seeded and truncated runs.
func TestAnytimeIncumbent(t *testing.T) {
	pr := buildProblem(t, gen.RealLike(1, 300))
	algos := []struct {
		name string
		run  func(*match.Problem, context.Context, match.Options) (match.Mapping, match.Stats, error)
	}{
		{"astar", (*match.Problem).AStarContext},
		{"greedy", (*match.Problem).GreedyExpandContext},
		{"advanced", (*match.Problem).HeuristicAdvancedContext},
	}
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			run := func(opts match.Options) (match.Mapping, match.Stats, []match.Checkpoint) {
				t.Helper()
				var cks []match.Checkpoint
				opts.Bound = match.BoundSharp
				opts.Telemetry = telemetry.NewRegistry()
				opts.CheckpointEvery = time.Nanosecond
				opts.Checkpoint = func(ck match.Checkpoint) { cks = append(cks, ck) }
				m, st, err := a.run(pr, context.Background(), opts)
				if err != nil {
					t.Fatal(err)
				}
				want := int64(math.Round(pr.Distance(m) * 1e6))
				if got := st.Telemetry.Gauge(match.MetricSearchRescore); got != want {
					t.Errorf("%s gauge %d, want round(Distance(returned)·1e6) = %d", match.MetricSearchRescore, got, want)
				}
				return m, st, cks
			}

			clean, cst, cks := run(match.Options{})
			seedScore := pr.Distance(clean)
			if len(cks) == 0 || cks[0].Score >= seedScore {
				t.Fatalf("instance no longer exercises the incumbent: first of %d checkpoints does not score below the result %v", len(cks), seedScore)
			}

			m, st, cks := run(match.Options{Seed: clean.Clone()})
			for i, ck := range cks {
				if ck.Score <= seedScore {
					t.Errorf("seeded checkpoint %d scores %v, not above the seed's %v", i, ck.Score, seedScore)
				}
			}
			if !slices.Equal(m, clean) || math.Float64bits(st.Score) != math.Float64bits(cst.Score) {
				t.Errorf("seeded with its own result: got %v (score %v), want %v (score %v)", m, st.Score, clean, cst.Score)
			}

			if _, st, _ := run(match.Options{MaxGenerated: cst.Generated / 3}); !st.Truncated {
				t.Errorf("MaxGenerated %d did not truncate: %+v", cst.Generated/3, st)
			}
		})
	}
}
