package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"testing"
)

// buildCFG parses `body` as a function body and lowers it.
func buildCFG(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return NewCFG(f.Decls[0].(*ast.FuncDecl).Body)
}

// markerBlocks maps each integer literal appearing in the CFG to the block
// holding it. Tests write `_ = 3` style markers to name program points.
func markerBlocks(t *testing.T, g *CFG) map[int]*Block {
	t.Helper()
	m := map[int]*Block{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			VisitAtomic(n, func(x ast.Node) bool {
				if lit, ok := x.(*ast.BasicLit); ok && lit.Kind == token.INT {
					v, err := strconv.Atoi(lit.Value)
					if err == nil {
						if prev, dup := m[v]; dup && prev != b {
							t.Fatalf("marker %d appears in two blocks", v)
						}
						m[v] = b
					}
				}
				return true
			})
		}
	}
	return m
}

func hasEdge(from, to *Block) bool {
	for _, s := range from.Succs {
		if s == to {
			return true
		}
	}
	return false
}

// pathExists reports graph reachability from one block to another.
func pathExists(from, to *Block) bool {
	seen := map[*Block]bool{}
	stack := []*Block{from}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == to {
			return true
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	return false
}

// reachedMarkers runs a trivial forward analysis and returns the markers in
// reachable blocks, sorted.
func reachedMarkers(t *testing.T, g *CFG) []int {
	t.Helper()
	_, reached := Forward(g, FlowProblem[struct{}]{
		Transfer: func(ast.Node, struct{}) struct{} { return struct{}{} },
		Join:     func(a, b struct{}) struct{} { return a },
		Equal:    func(a, b struct{}) bool { return true },
	})
	var out []int
	for v, b := range markerBlocks(t, g) {
		if reached[b.Index] {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCFGEarlyReturn(t *testing.T) {
	g := buildCFG(t, `
		if cond() {
			_ = 1
			return
		}
		_ = 2
	`)
	m := markerBlocks(t, g)
	if pathExists(m[1], m[2]) {
		t.Errorf("return path must not flow into the statement after the if")
	}
	if !pathExists(m[1], g.Exit) {
		t.Errorf("return must reach exit")
	}
	if !pathExists(g.Entry, m[2]) {
		t.Errorf("fallthrough past the if must be reachable")
	}
}

func TestCFGIfElseJoin(t *testing.T) {
	g := buildCFG(t, `
		if cond() {
			_ = 1
		} else {
			_ = 2
		}
		_ = 3
	`)
	m := markerBlocks(t, g)
	if !pathExists(m[1], m[3]) || !pathExists(m[2], m[3]) {
		t.Errorf("both branches must join")
	}
	if pathExists(m[1], m[2]) || pathExists(m[2], m[1]) {
		t.Errorf("branches must be exclusive")
	}
}

func TestCFGForBreakContinue(t *testing.T) {
	g := buildCFG(t, `
		for i := 0; i < n; i++ {
			if a() {
				_ = 1
				continue
			}
			if b() {
				_ = 2
				break
			}
			_ = 3
		}
		_ = 4
	`)
	m := markerBlocks(t, g)
	// The post block holds the i++ statement.
	var post *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.IncDecStmt); ok {
				post = b
			}
		}
	}
	if post == nil {
		t.Fatalf("no post block found")
	}
	if !hasEdge(m[1], post) {
		t.Errorf("continue must jump to the post block")
	}
	if !hasEdge(m[2], m[4]) {
		t.Errorf("break must jump past the loop")
	}
	if !pathExists(m[3], m[1]) {
		t.Errorf("loop body must iterate (back edge missing)")
	}
	if pathExists(m[1], m[3]) {
		// m1 -> post -> head -> body is a legitimate path; what must NOT
		// exist is a direct fall-through.
		if hasEdge(m[1], m[3]) {
			t.Errorf("continue must not fall through to the rest of the body")
		}
	}
}

func TestCFGRangeLoop(t *testing.T) {
	g := buildCFG(t, `
		for _, v := range xs {
			if v == 0 {
				_ = 1
				break
			}
			_ = 2
		}
		_ = 3
	`)
	m := markerBlocks(t, g)
	var head *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.RangeStmt); ok {
				head = b
			}
		}
	}
	if head == nil {
		t.Fatalf("range header marker not found in any block")
	}
	if !pathExists(m[2], head) {
		t.Errorf("range body must loop back to the header")
	}
	if !hasEdge(m[1], m[3]) {
		t.Errorf("break must jump past the range")
	}
	if !hasEdge(head, m[3]) {
		t.Errorf("range exhaustion must exit to the statement after")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	g := buildCFG(t, `
		switch x {
		case 101:
			_ = 1
			fallthrough
		case 102:
			_ = 2
		default:
			_ = 3
		}
		_ = 4
	`)
	m := markerBlocks(t, g)
	if !hasEdge(m[1], m[2]) {
		t.Errorf("fallthrough must chain into the next clause")
	}
	if !pathExists(m[2], m[4]) || !pathExists(m[3], m[4]) {
		t.Errorf("all clauses must exit to the statement after the switch")
	}
	if pathExists(m[2], m[3]) {
		t.Errorf("a clause without fallthrough must not reach the next clause")
	}
	// With a default clause every path goes through some clause.
	if hasEdge(m[101], m[4]) {
		t.Errorf("case-expression block must not jump straight past the switch")
	}
}

func TestCFGSwitchNoDefault(t *testing.T) {
	g := buildCFG(t, `
		switch x {
		case 101:
			_ = 1
		}
		_ = 2
	`)
	m := markerBlocks(t, g)
	// Without a default, the head may skip every clause.
	if !pathExists(g.Entry, m[2]) {
		t.Errorf("switch without default must be skippable")
	}
	found := false
	for _, b := range g.Blocks {
		if hasEdge(b, m[2]) && b != m[1] && pathExists(g.Entry, b) && !pathExists(m[1], b) {
			found = true
		}
	}
	if !found {
		t.Errorf("no head-to-after edge bypassing the clause body")
	}
}

func TestCFGSelect(t *testing.T) {
	g := buildCFG(t, `
		select {
		case v := <-ch:
			_ = 1
			_ = v
		default:
			_ = 2
		}
		_ = 3
	`)
	m := markerBlocks(t, g)
	var sel *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.SelectStmt); ok {
				sel = b
			}
		}
	}
	if sel == nil {
		t.Fatalf("select marker not found")
	}
	if !pathExists(sel, m[1]) || !pathExists(sel, m[2]) {
		t.Errorf("select must branch to every clause")
	}
	if !pathExists(m[1], m[3]) || !pathExists(m[2], m[3]) {
		t.Errorf("clauses must join after the select")
	}
	if pathExists(m[1], m[2]) {
		t.Errorf("select clauses must be exclusive")
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	g := buildCFG(t, `
	outer:
		for {
			for {
				_ = 1
				break outer
			}
		}
		_ = 2
	`)
	m := markerBlocks(t, g)
	if !hasEdge(m[1], m[2]) {
		t.Errorf("labeled break must jump past the outer loop")
	}
}

func TestCFGGoto(t *testing.T) {
	g := buildCFG(t, `
		i := 0
	loop:
		if i < n {
			_ = 1
			goto loop
		}
		_ = 2
	`)
	m := markerBlocks(t, g)
	if !pathExists(m[1], m[1]) {
		t.Errorf("goto must create a cycle through the label")
	}
	if !pathExists(g.Entry, m[2]) {
		t.Errorf("loop exit must be reachable")
	}
}

func TestCFGUnreachableAfterReturn(t *testing.T) {
	g := buildCFG(t, `
		_ = 1
		return
		_ = 2
	`)
	got := reachedMarkers(t, g)
	if !equalInts(got, []int{1}) {
		t.Errorf("reached markers = %v, want [1]", got)
	}
}

func TestCFGInfiniteLoopUnreachableAfter(t *testing.T) {
	g := buildCFG(t, `
		for {
			_ = 1
		}
		_ = 2
	`)
	got := reachedMarkers(t, g)
	if !equalInts(got, []int{1}) {
		t.Errorf("reached markers = %v, want [1]", got)
	}
}

// TestFuncBodies checks that every function body in a file is collected in
// source order: declarations, methods and nested literals, but not bodiless
// declarations.
func TestFuncBodies(t *testing.T) {
	const src = `package p

func a() {
	f := func() {
		g := func() {}
		_ = g
	}
	_ = f
}

type T struct{}

func (T) m() {}

func external()

var v = func() int { return 1 }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, b := range FuncBodies(f) {
		lines = append(lines, fset.Position(b.Lbrace).Line)
	}
	if want := []int{3, 4, 5, 13, 17}; !equalInts(lines, want) {
		t.Errorf("body lines = %v, want %v", lines, want)
	}
}
