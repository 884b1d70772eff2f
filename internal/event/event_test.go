package event

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"eventmatch/internal/telemetry"
)

func TestAlphabetIntern(t *testing.T) {
	a := NewAlphabet()
	idA := a.Intern("A")
	idB := a.Intern("B")
	if idA == idB {
		t.Fatalf("distinct names got same id %d", idA)
	}
	if got := a.Intern("A"); got != idA {
		t.Errorf("re-interning A: got %d want %d", got, idA)
	}
	if a.Len() != 2 {
		t.Errorf("Len = %d, want 2", a.Len())
	}
	if a.Name(idA) != "A" || a.Name(idB) != "B" {
		t.Errorf("names round-trip failed: %q %q", a.Name(idA), a.Name(idB))
	}
}

func TestAlphabetLookup(t *testing.T) {
	a := NewAlphabet("X", "Y")
	if a.Lookup("X") != 0 || a.Lookup("Y") != 1 {
		t.Errorf("Lookup ids wrong: %d %d", a.Lookup("X"), a.Lookup("Y"))
	}
	if a.Lookup("Z") != None {
		t.Errorf("Lookup of unknown name = %d, want None", a.Lookup("Z"))
	}
}

func TestAlphabetNamesIsCopy(t *testing.T) {
	a := NewAlphabet("A", "B")
	names := a.Names()
	names[0] = "mutated"
	if a.Name(0) != "A" {
		t.Error("Names() must return a copy")
	}
}

func TestAlphabetZeroValue(t *testing.T) {
	var a Alphabet
	if a.Lookup("A") != None {
		t.Error("zero alphabet should not contain anything")
	}
	if id := a.Intern("A"); id != 0 {
		t.Errorf("first intern in zero alphabet = %d, want 0", id)
	}
}

func TestFromStrings(t *testing.T) {
	l := FromStrings("A B C D", "A C B D")
	if l.NumTraces() != 2 {
		t.Fatalf("NumTraces = %d, want 2", l.NumTraces())
	}
	if l.NumEvents() != 4 {
		t.Fatalf("NumEvents = %d, want 4", l.NumEvents())
	}
	want := Trace{0, 2, 1, 3} // A C B D with intern order A,B,C,D
	if !reflect.DeepEqual(l.Traces[1], want) {
		t.Errorf("second trace = %v, want %v", l.Traces[1], want)
	}
}

func TestTraceString(t *testing.T) {
	l := FromStrings("A B C")
	if got := l.Traces[0].String(l.Alphabet); got != "<A B C>" {
		t.Errorf("String = %q, want %q", got, "<A B C>")
	}
}

func TestLogFrequency(t *testing.T) {
	// A in all 4 traces, B in 2, C in 1 (twice in that trace: counts once).
	l := FromStrings("A B", "A", "A B C C", "A")
	f := l.Frequency()
	want := []float64{1.0, 0.5, 0.25}
	if !reflect.DeepEqual(f, want) {
		t.Errorf("Frequency = %v, want %v", f, want)
	}
}

func TestLogFrequencyEmpty(t *testing.T) {
	l := NewLog()
	if f := l.Frequency(); len(f) != 0 {
		t.Errorf("empty log frequency = %v, want empty", f)
	}
}

func TestHead(t *testing.T) {
	l := FromStrings("A", "B", "C")
	if h := l.Head(2); h.NumTraces() != 2 {
		t.Errorf("Head(2) traces = %d, want 2", h.NumTraces())
	}
	if h := l.Head(99); h.NumTraces() != 3 {
		t.Errorf("Head(99) traces = %d, want 3", h.NumTraces())
	}
	if h := l.Head(-1); h.NumTraces() != 0 {
		t.Errorf("Head(-1) traces = %d, want 0", h.NumTraces())
	}
}

func TestValidate(t *testing.T) {
	l := FromStrings("A B")
	if err := l.Validate(); err != nil {
		t.Errorf("valid log: %v", err)
	}
	l.Traces[0][0] = 99
	if err := l.Validate(); err == nil {
		t.Error("out-of-range id not caught")
	}
	bad := &Log{}
	if err := bad.Validate(); err == nil {
		t.Error("nil alphabet not caught")
	}
}

func TestAppendNames(t *testing.T) {
	l := NewLog()
	l.AppendNames("A", "B")
	l.AppendNames("B", "C")
	if l.NumTraces() != 2 || l.NumEvents() != 3 {
		t.Errorf("traces=%d events=%d", l.NumTraces(), l.NumEvents())
	}
}

// Property: frequency of every event is in (0,1] and events that appear in
// every trace have frequency exactly 1.
func TestFrequencyBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLog()
		common := l.Alphabet.Intern("common")
		nEvents := 2 + rng.Intn(6)
		for i := 0; i < nEvents; i++ {
			l.Alphabet.Intern(string(rune('a' + i)))
		}
		nTraces := 1 + rng.Intn(20)
		for i := 0; i < nTraces; i++ {
			tr := Trace{common}
			for j := 0; j < rng.Intn(8); j++ {
				tr = append(tr, ID(1+rng.Intn(nEvents)))
			}
			l.Append(tr)
		}
		freq := l.Frequency()
		if freq[common] != 1.0 {
			return false
		}
		for _, f := range freq {
			if f < 0 || f > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProjectSet(t *testing.T) {
	l := FromStrings("A B C", "C B", "A")
	// Keep C and A, renumbered so C=0, A=1.
	p, err := l.ProjectSet([]ID{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEvents() != 2 {
		t.Fatalf("events = %d", p.NumEvents())
	}
	if p.Alphabet.Name(0) != "C" || p.Alphabet.Name(1) != "A" {
		t.Errorf("names = %v", p.Alphabet.Names())
	}
	// Trace "A B C" -> "A C" -> ids [1 0]; "C B" -> [0]; "A" -> [1].
	if !reflect.DeepEqual(p.Traces[0], Trace{1, 0}) {
		t.Errorf("trace 0 = %v", p.Traces[0])
	}
	if len(p.Traces) != 3 {
		t.Errorf("traces = %d", len(p.Traces))
	}
}

func TestProjectSetErrors(t *testing.T) {
	l := FromStrings("A B")
	if _, err := l.ProjectSet([]ID{0, 0}); err == nil {
		t.Error("duplicate ids must fail")
	}
	if _, err := l.ProjectSet([]ID{9}); err == nil {
		t.Error("out-of-range id must fail")
	}
	if _, err := l.ProjectSet([]ID{-1}); err == nil {
		t.Error("negative id must fail")
	}
}

func TestProjectSetDropsEmptyTraces(t *testing.T) {
	l := FromStrings("A B", "B")
	p, err := l.ProjectSet([]ID{0}) // keep only A
	if err != nil {
		t.Fatal(err)
	}
	if p.NumTraces() != 1 {
		t.Errorf("traces = %d, want 1", p.NumTraces())
	}
}

func TestRegisterTelemetry(t *testing.T) {
	l := FromStrings("A B C", "A C")
	l.RegisterTelemetry(nil, "log") // nil registry must be a no-op

	reg := telemetry.NewRegistry()
	l.RegisterTelemetry(reg, "log")
	snap := reg.Snapshot()
	want := map[string]int64{"log.traces": 2, "log.events": 3, "log.occurrences": 5}
	for name, v := range want {
		if got := snap.Gauge(name); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
}

// TestAppendDelta checks the delta of an append: its position, the trace
// itself, and the distinct events in first-occurrence order.
func TestAppendDelta(t *testing.T) {
	l := FromStrings("A B")
	a, b := l.Alphabet.Lookup("A"), l.Alphabet.Lookup("B")
	d := l.AppendDelta(Trace{b, a, b, b, a})
	if d.TraceIndex != 1 || l.NumTraces() != 2 {
		t.Fatalf("TraceIndex = %d, traces = %d; want 1, 2", d.TraceIndex, l.NumTraces())
	}
	if !reflect.DeepEqual(d.Trace, Trace{b, a, b, b, a}) || !reflect.DeepEqual(l.Traces[1], d.Trace) {
		t.Errorf("delta trace %v, log trace %v", d.Trace, l.Traces[1])
	}
	if want := []ID{b, a}; !reflect.DeepEqual(d.Events, want) {
		t.Errorf("Events = %v, want %v", d.Events, want)
	}
	if len(d.NewEvents) != 0 {
		t.Errorf("AppendDelta interned nothing, NewEvents = %v", d.NewEvents)
	}
	if e := l.AppendDelta(Trace{}); e.TraceIndex != 2 || len(e.Events) != 0 {
		t.Errorf("empty trace delta = %+v", e)
	}
}

// TestAppendNamesDelta checks that an append by names reports exactly the
// ids it interned, ascending, and none when every name is already known.
func TestAppendNamesDelta(t *testing.T) {
	l := FromStrings("A B")
	d := l.AppendNamesDelta("C", "A", "D", "C")
	c, dd := l.Alphabet.Lookup("C"), l.Alphabet.Lookup("D")
	if want := []ID{c, dd}; !reflect.DeepEqual(d.NewEvents, want) {
		t.Errorf("NewEvents = %v, want %v", d.NewEvents, want)
	}
	if want := []ID{c, l.Alphabet.Lookup("A"), dd}; !reflect.DeepEqual(d.Events, want) {
		t.Errorf("Events = %v, want %v", d.Events, want)
	}
	if d.TraceIndex != 1 || l.Traces[1].String(l.Alphabet) != "<C A D C>" {
		t.Errorf("appended trace %d = %q", d.TraceIndex, l.Traces[1].String(l.Alphabet))
	}
	if again := l.AppendNamesDelta("B", "D"); len(again.NewEvents) != 0 || again.TraceIndex != 2 {
		t.Errorf("known names: delta = %+v, want no new events at index 2", again)
	}
}
