// Package match implements the paper's core contribution: event matching
// with patterns. It provides the normal-distance score functions
// (Definitions 2 and 5), the generic A* matching framework with simple and
// tight score bounds (Sections 3 and 4), and the heuristic matchers
// (Section 5).
//
// The entry point is BuildProblem, which precomputes dependency graphs,
// pattern frequencies and the inverted indices Ip/It for a pair of logs;
// the search algorithms (AStar, GreedyExpand, HeuristicAdvanced) then run
// against the problem.
package match

import (
	"fmt"

	"eventmatch/internal/depgraph"
	"eventmatch/internal/event"
	"eventmatch/internal/pattern"
)

// Mapping is an injective event mapping M : V1 → V2, indexed by V1 event id.
// Unmapped events hold event.None.
type Mapping []event.ID

// NewMapping returns an all-unmapped mapping for n1 source events.
func NewMapping(n1 int) Mapping {
	m := make(Mapping, n1)
	for i := range m {
		m[i] = event.None
	}
	return m
}

// Clone returns a copy of the mapping.
func (m Mapping) Clone() Mapping {
	out := make(Mapping, len(m))
	copy(out, m)
	return out
}

// Complete reports whether every source event is mapped.
func (m Mapping) Complete() bool {
	for _, v := range m {
		if v == event.None {
			return false
		}
	}
	return true
}

// Sim is the frequency similarity primitive used throughout the paper:
// 1 − |a−b| / (a+b), defined as 0 when both frequencies are 0 (no evidence,
// no contribution). It lies in [0, 1].
func Sim(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return 1 - d/(a+b)
}

// Kind classifies patterns by their structural role: vertices and edges are
// the "special patterns" of the paper that reduce pattern matching to the
// Kang–Naughton forms; everything else is a complex pattern evaluated by
// trace scanning.
type Kind uint8

// Pattern kinds.
const (
	KindVertex Kind = iota
	KindEdge
	KindComplex
)

// Mode selects which special patterns are added to the problem's pattern set
// alongside the user-declared complex patterns.
type Mode int

// Matching modes: the paper's Vertex form, Vertex+Edge form, the full
// pattern form (vertices + edges + user patterns), and a user-patterns-only
// form used by the Theorem 1 reduction (no special patterns added).
const (
	ModeVertex Mode = iota
	ModeVertexEdge
	ModePattern
	ModeUserPatterns
)

func (m Mode) String() string {
	switch m {
	case ModeVertex:
		return "vertex"
	case ModeVertexEdge:
		return "vertex+edge"
	case ModePattern:
		return "pattern"
	case ModeUserPatterns:
		return "user-patterns"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// pinfo carries a pattern plus everything precomputed about it.
type pinfo struct {
	p      *pattern.Pattern
	kind   Kind
	f1     float64         // normalized frequency in L1
	omega  int64           // |I(p)|
	events []event.ID      // events of p, appearance order
	edges  []depgraph.Edge // graph-form edges of p

	// Where f1 falls in G2's ascending vertex and edge frequency orders:
	// the first position whose frequency is ≥ f1 (set by setG2).
	vpos, epos int
}

// Problem is a prepared event-matching instance over two logs.
//
// When |V1| > |V2| the target alphabet is padded internally with artificial
// zero-frequency events (the Kuhn–Munkres device of §2.1), so every search
// maps all of V1 and the events "mapped" to artificial targets come back as
// unmapped. G2 is built over the padded alphabet; L2 remains the original.
type Problem struct {
	L1, L2 *event.Log
	G1, G2 *depgraph.Graph
	Mode   Mode

	n2pad  int // padded target alphabet size (== max(|V1|, |V2|))
	n2real int // original |V2|

	patterns []pinfo
	pix      *pattern.PatternIndex // Ip over the full pattern set
	fc2      *pattern.FrequencyCache

	order []event.ID // static A* expansion order over V1 (§3.1)

	nodes  nodePool  // recycled search-tree nodes (see pool.go)
	bounds boundPool // recycled bound-context scratch (see pool.go)

	// DisableExistencePruning turns off the Proposition 3 subgraph check
	// before frequency evaluation (ablation only).
	DisableExistencePruning bool
}

// BuildProblem prepares a matching instance. user holds the complex patterns
// declared over L1 (may be nil); mode selects which special patterns join
// them. User patterns with zero frequency in L1 are dropped (they can never
// contribute to the distance).
func BuildProblem(l1, l2 *event.Log, user []*pattern.Pattern, mode Mode) (*Problem, error) {
	pr, _, err := buildProblem(l1, l2, user, mode)
	return pr, err
}

// buildProblem is BuildProblem that also returns the trace counts G2 was
// materialized from, for a StreamProblem to fold its appends into.
func buildProblem(l1, l2 *event.Log, user []*pattern.Pattern, mode Mode) (*Problem, *depgraph.Counts, error) {
	if err := l1.Validate(); err != nil {
		return nil, nil, fmt.Errorf("match: L1: %w", err)
	}
	if err := l2.Validate(); err != nil {
		return nil, nil, fmt.Errorf("match: L2: %w", err)
	}
	pr := &Problem{
		L1: l1, L2: l2,
		G1:   depgraph.Build(l1),
		Mode: mode,
	}
	pr.n2real = l2.NumEvents()
	l2g := l2
	if n1 := l1.NumEvents(); n1 > l2.NumEvents() {
		padded := &event.Log{Alphabet: event.NewAlphabet(l2.Alphabet.Names()...), Traces: l2.Traces}
		for i := l2.NumEvents(); i < n1; i++ {
			padded.Alphabet.Intern(fmt.Sprintf("\x00artificial-%d", i))
		}
		l2g = padded
	}
	pr.n2pad = l2g.NumEvents()
	eng1 := pattern.NewEngine(pattern.NewTraceIndex(l1), 1)
	pr.fc2 = pattern.NewFrequencyCache(pattern.NewTraceIndex(l2g))

	// Vertex patterns: every event of V1 (except in user-patterns-only mode).
	for v := 0; mode != ModeUserPatterns && v < l1.NumEvents(); v++ {
		p := pattern.Single(event.ID(v))
		pr.patterns = append(pr.patterns, pinfo{
			p:      p,
			kind:   KindVertex,
			f1:     pr.G1.VertexFreq(event.ID(v)),
			omega:  1,
			events: p.Events(),
		})
	}
	// Edge patterns: every dependency edge of G1.
	if mode == ModeVertexEdge || mode == ModePattern {
		for _, e := range pr.G1.Edges() {
			var p *pattern.Pattern
			kind := KindEdge
			if e.From == e.To {
				// A self-loop is not expressible as SEQ(v,v) (pattern events
				// must be distinct); keep it as a single-event pattern whose
				// f2 evaluator reads the self-loop edge frequency.
				p = pattern.Single(e.From)
				kind = KindVertex
			} else {
				p = pattern.MustSeq(pattern.Single(e.From), pattern.Single(e.To))
			}
			pr.patterns = append(pr.patterns, pinfo{
				p:      p,
				kind:   kind,
				f1:     pr.G1.EdgeFreq(e.From, e.To),
				omega:  1,
				events: p.Events(),
				edges:  []depgraph.Edge{e},
			})
		}
	}
	// User-declared complex patterns.
	if mode == ModePattern || mode == ModeUserPatterns {
		for i, p := range user {
			if p == nil {
				return nil, nil, fmt.Errorf("match: user pattern %d is nil", i)
			}
			for _, v := range p.Events() {
				if int(v) >= l1.NumEvents() {
					return nil, nil, fmt.Errorf("match: user pattern %d uses event %d outside L1's alphabet", i, v)
				}
			}
			f1 := eng1.Frequency(p)
			if f1 == 0 {
				continue // cannot contribute: Sim(0, x) is 0 for every x
			}
			_, edges := p.Graph()
			pr.patterns = append(pr.patterns, pinfo{
				p:      p,
				kind:   classify(p),
				f1:     f1,
				omega:  p.Orders(),
				events: p.Events(),
				edges:  edges,
			})
		}
	}

	ps := make([]*pattern.Pattern, len(pr.patterns))
	for i := range pr.patterns {
		ps[i] = pr.patterns[i].p
	}
	pr.pix = pattern.NewPatternIndex(ps)
	pr.order = pr.expansionOrder()
	c2 := depgraph.Count(l2g)
	pr.setG2(c2.Graph(l2g.Alphabet))
	return pr, c2, nil
}

// classify determines the evaluation kind of a user pattern: single events
// and two-event SEQs collapse to the cheap vertex/edge evaluators.
func classify(p *pattern.Pattern) Kind {
	switch {
	case p.Size() == 1:
		return KindVertex
	case p.Size() == 2 && p.Orders() == 1:
		return KindEdge
	default:
		return KindComplex
	}
}

// stripArtificial replaces images pointing at artificial padded targets with
// event.None, in place, and returns m. Search results pass through this
// before reaching callers, so public mappings only ever name real V2 events.
func (pr *Problem) stripArtificial(m Mapping) Mapping {
	if pr.n2pad == pr.n2real {
		return m
	}
	for i, v := range m {
		if v != event.None && int(v) >= pr.n2real {
			m[i] = event.None
		}
	}
	return m
}

// NumPatterns reports the size of the problem's pattern set P.
func (pr *Problem) NumPatterns() int { return len(pr.patterns) }

// expansionOrder returns V1 events ordered by the number of patterns they
// participate in, descending (§3.1: "select a vertex which is included by
// most of the patterns"), tie-broken by id for determinism.
func (pr *Problem) expansionOrder() []event.ID {
	n := pr.L1.NumEvents()
	order := make([]event.ID, n)
	for i := range order {
		order[i] = event.ID(i)
	}
	deg := make([]int, n)
	for i := range order {
		deg[i] = pr.pix.Degree(event.ID(i))
	}
	// Insertion sort: stable, n is small.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && deg[order[j]] > deg[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// f2 evaluates f2(M(p)) for pattern index pi under a (at least partially)
// defined mapping covering all of the pattern's events.
func (pr *Problem) f2(pi *pinfo, m Mapping) float64 {
	switch pi.kind {
	case KindVertex:
		v2 := m[pi.events[0]]
		if v2 == event.None || int(v2) >= pr.G2.NumVertices() {
			return 0
		}
		// Self-loop edge patterns classified as vertex carry one edge.
		if len(pi.edges) == 1 {
			return pr.G2.EdgeFreq(v2, v2)
		}
		return pr.G2.VertexFreq(v2)
	case KindEdge:
		a, b := m[pi.events[0]], m[pi.events[1]]
		if a == event.None || b == event.None {
			return 0
		}
		return pr.G2.EdgeFreq(a, b)
	default:
		// Proposition 3: if the mapped graph form is not a subgraph of G2,
		// the frequency is 0 — skip the log scan.
		if !pr.DisableExistencePruning && !pr.graphFormIn(pi, m) {
			return 0
		}
		for _, v := range pi.events {
			if m[v] == event.None {
				return 0
			}
		}
		mp, err := pi.p.Map(m)
		if err != nil {
			return 0
		}
		return pr.fc2.Frequency(mp)
	}
}

// graphFormIn reports whether every edge of pi's graph form maps onto an
// edge of G2 under m.
func (pr *Problem) graphFormIn(pi *pinfo, m Mapping) bool {
	for _, e := range pi.edges {
		a, b := m[e.From], m[e.To]
		if a == event.None || b == event.None || !pr.G2.HasEdge(a, b) {
			return false
		}
	}
	return true
}

// contribution returns d(p) = Sim(f1(p), f2(M(p))) for a fully mapped pattern.
func (pr *Problem) contribution(pi *pinfo, m Mapping) float64 {
	return Sim(pi.f1, pr.f2(pi, m))
}

// contributionBound is an upper bound of pi's term in Distance(m) that
// scans no log: 0 when pi is not fully mapped, d(p) itself for vertex and
// edge patterns, Sim(f1, 0) for a complex pattern whose image Proposition 3
// rules out (unless existence pruning is disabled), and 1, the most any
// d(p) can be, for every other complex pattern.
func (pr *Problem) contributionBound(pi *pinfo, m Mapping) float64 {
	switch {
	case !fullyMapped(pi, m):
		return 0
	case pi.kind != KindComplex:
		return pr.contribution(pi, m)
	case !pr.DisableExistencePruning && !pr.graphFormIn(pi, m):
		return Sim(pi.f1, 0)
	default:
		return 1
	}
}

// Distance computes the pattern normal distance D^N(M) of Definition 5 for a
// (possibly partial) mapping: patterns whose events are all mapped contribute
// d(p); others contribute nothing. For ModeVertex this is the vertex normal
// distance, for ModeVertexEdge the vertex+edge form of Definition 2.
func (pr *Problem) Distance(m Mapping) float64 {
	total := 0.0
	for i := range pr.patterns {
		pi := &pr.patterns[i]
		if fullyMapped(pi, m) {
			total += pr.contribution(pi, m)
		}
	}
	return total
}

func fullyMapped(pi *pinfo, m Mapping) bool {
	for _, v := range pi.events {
		if m[v] == event.None {
			return false
		}
	}
	return true
}
