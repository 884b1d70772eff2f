//go:build matchdebug

package pattern

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"eventmatch/internal/event"
)

func TestDebugAssertionsEnabled(t *testing.T) {
	if !debugAssertions {
		t.Fatal("built with -tags matchdebug but debugAssertions is false")
	}
}

// abcLog builds traces over {a, b, c} where every third trace has a before b.
func abcLog(traces int) *event.Log {
	l := event.NewLog()
	for i := 0; i < traces; i++ {
		if i%3 == 0 {
			l.AppendNames("a", "b", "c")
		} else {
			l.AppendNames("b", "a", "c")
		}
	}
	return l
}

func TestAssertShardSum(t *testing.T) {
	l := abcLog(600)
	ix := NewTraceIndex(l)
	e := NewEngine(ix, 4)
	p := MustSeq(Single(0), Single(1)) // a before b
	cand := ix.Candidates(p.Events())
	n := 0
	for _, ti := range cand {
		if p.MatchesTrace(l.Traces[ti]) {
			n++
		}
	}

	e.assertShardSum(context.Background(), p, cand, n) // correct merge: no panic

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	e.assertShardSum(canceled, p, cand, n+7) // canceled scan: check skipped

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("wrong merged count did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "shard merge") {
			t.Fatalf("panic %q does not mention the shard merge", msg)
		}
	}()
	e.assertShardSum(context.Background(), p, cand, n+1)
}

// TestParallelScanRunsAssertion drives a real parallel scan (candidate list
// above minParallelTraces, several workers) through the assertion call site
// in countMatches.
func TestParallelScanRunsAssertion(t *testing.T) {
	l := abcLog(4 * minParallelTraces)
	ix := NewTraceIndex(l)
	e := NewEngine(ix, 4)
	p := MustSeq(Single(0), Single(1))
	f, err := e.FrequencyContext(context.Background(), p)
	if err != nil {
		t.Fatalf("FrequencyContext: %v", err)
	}
	if want := p.Frequency(l); f != want {
		t.Fatalf("parallel frequency %v, sequential %v", f, want)
	}
}
