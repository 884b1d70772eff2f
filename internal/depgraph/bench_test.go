package depgraph_test

import (
	"math/rand"
	"testing"

	"eventmatch/internal/depgraph"
	"eventmatch/internal/event"
	"eventmatch/internal/gen"
)

// benchLog draws a log of uniformly random events, so on 16 events and
// traces of 12 nearly every one of the 256 edges occurs.
func benchLog(nEvents, nTraces, traceLen int) *event.Log {
	rng := rand.New(rand.NewSource(1))
	l := event.NewLog()
	for i := 0; i < nEvents; i++ {
		l.Alphabet.Intern(string(rune('A' + i)))
	}
	for i := 0; i < nTraces; i++ {
		tr := make(event.Trace, traceLen)
		for j := range tr {
			tr[j] = event.ID(rng.Intn(nEvents))
		}
		l.Append(tr)
	}
	return l
}

// BenchmarkBuild times Build; one op builds every log of the case. The
// fig12 case is a Fig. 12 pair at 20 events (about 100 edges, 2,000 traces
// per log) and the reallike case the 11-event ERP pair of 1,000 traces, so
// their ops are the two builds a matching problem makes.
func BenchmarkBuild(b *testing.B) {
	fig12 := gen.LargeSynthetic(1, 2, 2000)
	real := gen.RealLike(1, 1000)
	cases := []struct {
		name string
		logs []*event.Log
	}{
		{"random16", []*event.Log{benchLog(16, 3000, 12)}},
		{"fig12", []*event.Log{fig12.L1, fig12.L2}},
		{"reallike", []*event.Log{real.L1, real.L2}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, l := range c.logs {
					depgraph.Build(l)
				}
			}
		})
	}
}
