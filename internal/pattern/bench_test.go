package pattern

import (
	"math/rand"
	"testing"

	"eventmatch/internal/event"
)

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

func BenchmarkMatchesTraceSeq4(b *testing.B) {
	l := benchLog(8, 1, 64)
	p := must(ParseBind("SEQ(A,B,C,D)", l.Alphabet))
	tr := l.Traces[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MatchesTrace(tr)
	}
}

func BenchmarkMatchesTraceAnd4(b *testing.B) {
	l := benchLog(8, 1, 64)
	p := must(ParseBind("AND(A,B,C,D)", l.Alphabet))
	tr := l.Traces[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MatchesTrace(tr)
	}
}

func BenchmarkFrequencyDirect(b *testing.B) {
	l := benchLog(8, 2000, 16)
	p := must(ParseBind("SEQ(A,AND(B,C),D)", l.Alphabet))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Frequency(l)
	}
}

func BenchmarkFrequencyIndexed(b *testing.B) {
	l := benchLog(8, 2000, 16)
	p := must(ParseBind("SEQ(A,AND(B,C),D)", l.Alphabet))
	eng := NewEngine(NewTraceIndex(l), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Frequency(p)
	}
}

func BenchmarkParse(b *testing.B) {
	src := "SEQ(A,AND(B,SEQ(C,D)),AND(E,F),G)"
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildTraceIndex(b *testing.B) {
	l := benchLog(8, 2000, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewTraceIndex(l)
	}
}
