// Custom benchmark: build your own heterogeneous-log benchmark from a
// composable process model, measure how often a pattern occurs, and match
// the two departments' logs.
//
// Run with:
//
//	go run ./examples/custombench
package main

import (
	"fmt"
	"log"

	"eventmatch"
	"eventmatch/internal/process"
)

func main() {
	// An insurance-claim process: intake, a triage choice, parallel
	// assessment, an optional fraud review loop, settlement.
	model, err := process.NewModel(process.Seq{
		process.Activity("FileClaim"),
		process.Choice{
			{Weight: 0.7, Node: process.Activity("FastTrack")},
			{Weight: 0.3, Node: process.Activity("FullReview")},
		},
		process.Parallel{
			process.Activity("AssessDamage"),
			process.Activity("VerifyPolicy"),
		},
		process.Optional{P: 0.25, Node: process.Loop{
			Again: 0.3, MaxExtra: 2, Node: process.Activity("FraudCheck"),
		}},
		process.Activity("Settle"),
	})
	if err != nil {
		log.Fatal(err)
	}

	codes := map[string]string{
		"FileClaim": "LA", "FastTrack": "KS", "FullReview": "QS",
		"AssessDamage": "DP", "VerifyPolicy": "BD", "FraudCheck": "FQ", "Settle": "JS",
	}
	patterns := []string{"SEQ(AND(AssessDamage,VerifyPolicy),Settle)"}

	// Branch 1 strongly prefers assessing damage before verifying the
	// policy (OrderBias 0.8).
	l1 := model.Simulate(1, 2000, process.Params{OrderBias: 0.8, SwapNoise: 0.02})

	// How often the discriminative pattern occurs in branch 1.
	freq, err := eventmatch.PatternFrequency(patterns[0], l1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pattern %s occurs in %.0f%% of branch-1 claims\n", patterns[0], 100*freq)

	// Scenario A: branch 2 shares branch 1's ordering habits (bias 0.4,
	// same ranking) — order statistics identify every activity.
	runScenario(l1, model, codes, patterns, 0.4,
		"\nscenario A — branches share ordering habits:")

	// Scenario B: branch 2 verifies the policy before assessing damage
	// (bias -0.4, ranking inverted). The AND pattern is order-symmetric, so
	// nothing distinguishes the two parallel activities any more — the
	// matcher necessarily swaps them. This is the paper's own limit case:
	// patterns discriminate groups, not members of a symmetric group.
	runScenario(l1, model, codes, patterns, -0.4,
		"\nscenario B — branch 2 inverts the parallel order (expect the pair to swap):")
}

func runScenario(l1 *eventmatch.Log, model *process.Model, codes map[string]string, patterns []string, bias float64, header string) {
	raw2 := model.Simulate(2, 2000, process.Params{OrderBias: bias, SwapNoise: 0.05})
	l2 := eventmatch.LogFromStrings()
	for _, t := range raw2.Traces {
		names := make([]string, len(t))
		for i, e := range t {
			names[i] = codes[raw2.Alphabet.Name(e)]
		}
		l2.AppendNames(names...)
	}
	res, err := eventmatch.Match(l1, l2, eventmatch.Config{Patterns: patterns})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(header)
	correct := 0
	for _, name := range model.Activities() {
		code := res.Pairs[name]
		mark := ""
		if codes[name] == code {
			correct++
		} else {
			mark = "   <- wrong, truth " + codes[name]
		}
		fmt.Printf("  %-14s -> %s%s\n", name, code, mark)
	}
	fmt.Printf("%d/%d correct\n", correct, len(res.Pairs))
}
