package main

import (
	"strings"
	"testing"
	"time"

	"eventmatch/internal/experiments"
)

func TestRunTable3Only(t *testing.T) {
	cfg := experiments.Config{Seed: 7, Traces: 100, SynthTraces: 50, ExactBudget: 10 * time.Second, Runs: 2}
	selected := func(name string) bool { return name == "table3" }
	if err := run(cfg, selected); err != nil {
		t.Fatal(err)
	}
}

func TestRunTable4Only(t *testing.T) {
	cfg := experiments.Config{Seed: 7, Traces: 100, SynthTraces: 50, ExactBudget: 10 * time.Second, Runs: 3}
	selected := func(name string) bool { return name == "table4" }
	if err := run(cfg, selected); err != nil {
		t.Fatal(err)
	}
}

func TestParseOnly(t *testing.T) {
	for _, tc := range []struct {
		only string
		want []string // selected experiments; nil with bad set means an error
		bad  string   // the unknown name the error must quote
	}{
		{only: "", want: experimentNames},
		{only: "table3", want: []string{"table3"}},
		{only: " fig7 , ablations", want: []string{"fig7", "ablations"}},
		{only: "fig99,tabel3", bad: "fig99"},
		{only: "table3,benchfreq", bad: "benchfreq"},
		{only: "benchstream", bad: "benchstream"},
		{only: "table3,", bad: `""`},
	} {
		selected, err := parseOnly(tc.only)
		if tc.bad != "" {
			if err == nil {
				t.Errorf("parseOnly(%q): no error, want one naming %s", tc.only, tc.bad)
			} else if msg := err.Error(); !strings.Contains(msg, tc.bad) || !strings.Contains(msg, strings.Join(experimentNames, ", ")) {
				t.Errorf("parseOnly(%q): error %q must name %s and list the valid experiments", tc.only, msg, tc.bad)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseOnly(%q): %v", tc.only, err)
			continue
		}
		want := map[string]bool{}
		for _, name := range tc.want {
			want[name] = true
		}
		for _, name := range experimentNames {
			if got := selected(name); got != want[name] {
				t.Errorf("parseOnly(%q): selected(%s) = %v, want %v", tc.only, name, got, want[name])
			}
		}
	}
}
