package pattern_test

import (
	"testing"

	"eventmatch/internal/gen"
	"eventmatch/internal/pattern"
)

// TestTraceIndexAllocs gates the trace index's size on the Fig. 12-scale
// frequency workload (50 events, 6000 traces): building it allocates the
// index and its one flat bitset array, and that array holds exactly one
// ⌈NumTraces/64⌉-word row per event.
func TestTraceIndexAllocs(t *testing.T) {
	l := gen.LargeSynthetic(107, 5, 6000).L1
	if allocs := testing.AllocsPerRun(3, func() { pattern.NewTraceIndex(l) }); allocs > 2 {
		t.Errorf("NewTraceIndex: %v allocs, want <= 2", allocs)
	}
	ix := pattern.NewTraceIndex(l)
	if got, want := ix.NumWords(), l.NumEvents()*((l.NumTraces()+63)/64); got != want {
		t.Errorf("bitset array: %d words, want %d events x %d words", got, l.NumEvents(), (l.NumTraces()+63)/64)
	}
}
