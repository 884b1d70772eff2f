package pattern

import (
	"fmt"
	"strings"

	"eventmatch/internal/event"
)

// Expr is a parsed, name-based pattern expression, not yet bound to an
// alphabet. Parsing and binding are separate so pattern files can be parsed
// once and bound to several logs.
type Expr struct {
	Op   Op
	Name string  // when Op == OpEvent
	Subs []*Expr // otherwise
}

// Parse parses a textual pattern such as "SEQ(A,AND(B,C),D)". Event names may
// contain any characters except '(', ')', ',' and whitespace. The operator
// keywords SEQ and AND are case-insensitive.
func Parse(s string) (*Expr, error) {
	p := &parser{input: s}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, fmt.Errorf("pattern: trailing input at offset %d in %q", p.pos, s)
	}
	return e, nil
}

type parser struct {
	input string
	pos   int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t') {
		p.pos++
	}
}

func (p *parser) parseExpr() (*Expr, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.input) && !strings.ContainsRune("(),", rune(p.input[p.pos])) && p.input[p.pos] != ' ' && p.input[p.pos] != '\t' {
		p.pos++
	}
	tok := p.input[start:p.pos]
	if tok == "" {
		return nil, fmt.Errorf("pattern: expected event name or operator at offset %d in %q", start, p.input)
	}
	p.skipSpace()
	upper := strings.ToUpper(tok)
	if (upper == "SEQ" || upper == "AND") && p.pos < len(p.input) && p.input[p.pos] == '(' {
		p.pos++ // consume '('
		var subs []*Expr
		for {
			sub, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			subs = append(subs, sub)
			p.skipSpace()
			if p.pos >= len(p.input) {
				return nil, fmt.Errorf("pattern: unclosed %s(... in %q", upper, p.input)
			}
			switch p.input[p.pos] {
			case ',':
				p.pos++
			case ')':
				p.pos++
				op := OpSeq
				if upper == "AND" {
					op = OpAnd
				}
				return &Expr{Op: op, Subs: subs}, nil
			default:
				return nil, fmt.Errorf("pattern: expected ',' or ')' at offset %d in %q", p.pos, p.input)
			}
		}
	}
	return &Expr{Op: OpEvent, Name: tok}, nil
}

// String renders the expression back to the textual syntax.
func (e *Expr) String() string {
	var b strings.Builder
	e.render(&b)
	return b.String()
}

func (e *Expr) render(b *strings.Builder) {
	switch e.Op {
	case OpEvent:
		b.WriteString(e.Name)
	case OpSeq, OpAnd:
		if e.Op == OpSeq {
			b.WriteString("SEQ(")
		} else {
			b.WriteString("AND(")
		}
		for i, s := range e.Subs {
			if i > 0 {
				b.WriteByte(',')
			}
			s.render(b)
		}
		b.WriteByte(')')
	}
}

// Bind resolves the expression's event names against an alphabet, producing
// an executable Pattern. Unknown names are an error (patterns are declared
// over an existing log, Definition 3).
func (e *Expr) Bind(a *event.Alphabet) (*Pattern, error) {
	switch e.Op {
	case OpEvent:
		id := a.Lookup(e.Name)
		if id == event.None {
			return nil, fmt.Errorf("pattern: unknown event %q", e.Name)
		}
		return Single(id), nil
	default:
		subs := make([]*Pattern, len(e.Subs))
		for i, s := range e.Subs {
			sub, err := s.Bind(a)
			if err != nil {
				return nil, err
			}
			subs[i] = sub
		}
		return compose(e.Op, subs)
	}
}

// ParseBind parses and binds in one step.
func ParseBind(s string, a *event.Alphabet) (*Pattern, error) {
	e, err := Parse(s)
	if err != nil {
		return nil, err
	}
	return e.Bind(a)
}

// ParseAll parses newline-separated pattern definitions, skipping blank lines
// and lines starting with '#'. This is the on-disk pattern file format used
// by the CLI tools.
func ParseAll(text string) ([]*Expr, error) {
	var out []*Expr
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := Parse(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		out = append(out, e)
	}
	return out, nil
}
