package pattern

import (
	"reflect"
	"strings"
	"testing"

	"eventmatch/internal/event"
)

func TestParseSingle(t *testing.T) {
	e, err := Parse("Ship_Goods")
	if err != nil {
		t.Fatal(err)
	}
	if e.Op != OpEvent || e.Name != "Ship_Goods" {
		t.Errorf("parsed %+v", e)
	}
}

func TestParseNested(t *testing.T) {
	e, err := Parse("SEQ(A,AND(B,C),D)")
	if err != nil {
		t.Fatal(err)
	}
	if e.Op != OpSeq || len(e.Subs) != 3 {
		t.Fatalf("parsed %+v", e)
	}
	if e.Subs[1].Op != OpAnd || len(e.Subs[1].Subs) != 2 {
		t.Errorf("middle sub = %+v", e.Subs[1])
	}
	if got := e.String(); got != "SEQ(A,AND(B,C),D)" {
		t.Errorf("round-trip = %q", got)
	}
}

func TestParseWhitespaceAndCase(t *testing.T) {
	e, err := Parse("seq( A , and(B, C) , D )")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.String(); got != "SEQ(A,AND(B,C),D)" {
		t.Errorf("normalized = %q", got)
	}
}

func TestParseOperatorNameAsEvent(t *testing.T) {
	// A bare "SEQ" without parentheses is an event name.
	e, err := Parse("SEQ")
	if err != nil {
		t.Fatal(err)
	}
	if e.Op != OpEvent || e.Name != "SEQ" {
		t.Errorf("parsed %+v", e)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"SEQ(",
		"SEQ()",
		"SEQ(A,",
		"SEQ(A))",
		"SEQ(A B)",
		"(A)",
		",",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestBind(t *testing.T) {
	a := event.NewAlphabet("A", "B", "C", "D")
	p, err := ParseBind("SEQ(A,AND(B,C),D)", a)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 4 {
		t.Errorf("size = %d", p.Size())
	}
	if got := p.String(a); got != "SEQ(A,AND(B,C),D)" {
		t.Errorf("String = %q", got)
	}
}

func TestBindUnknownEvent(t *testing.T) {
	a := event.NewAlphabet("A")
	if _, err := ParseBind("SEQ(A,Z)", a); err == nil || !strings.Contains(err.Error(), "Z") {
		t.Errorf("unknown event error = %v", err)
	}
}

func TestBindDuplicateEvent(t *testing.T) {
	a := event.NewAlphabet("A", "B")
	if _, err := ParseBind("SEQ(A,B,A)", a); err == nil {
		t.Error("duplicate event must fail at bind time")
	}
}

func TestParseAll(t *testing.T) {
	text := `
# patterns for L1
SEQ(A,AND(B,C),D)

SEQ(D,E)
`
	exprs, err := ParseAll(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(exprs) != 2 {
		t.Fatalf("got %d exprs", len(exprs))
	}
	a := event.NewAlphabet("A", "B", "C", "D", "E")
	p, err := exprs[1].Bind(a)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 2 {
		t.Errorf("second pattern size = %d", p.Size())
	}
}

func TestParseAllError(t *testing.T) {
	if _, err := ParseAll("SEQ(A,B)\nSEQ("); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error = %v", err)
	}
}

func TestExprStringNested(t *testing.T) {
	e, err := Parse("AND(SEQ(A,B),C)")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.String(); got != "AND(SEQ(A,B),C)" {
		t.Errorf("String = %q", got)
	}
}

func TestParseBindRoundTripThroughPattern(t *testing.T) {
	a := event.NewAlphabet("A", "B", "C", "D", "E")
	for _, src := range []string{
		"A",
		"SEQ(A,B)",
		"AND(A,B,C)",
		"SEQ(A,AND(B,C),D)",
		"AND(SEQ(A,B),SEQ(C,D),E)",
	} {
		p, err := ParseBind(src, a)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := p.String(a); got != src {
			t.Errorf("round trip %q -> %q", src, got)
		}
		// Re-parse the rendered form; must be identical.
		p2, err := ParseBind(p.String(a), a)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if !reflect.DeepEqual(p.Events(), p2.Events()) {
			t.Errorf("%s: events differ after round trip", src)
		}
	}
}
