package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// checkSyncString type-checks one synthetic file that may import sync,
// resolving the import through build-cache export data.
func checkSyncString(t *testing.T, src string) (*token.FileSet, []*ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	files := []*ast.File{f}
	_, info, err := CheckSource("", "fixture", fset, files, nil)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return fset, files, info
}

// funcCFG builds the CFG of the named function or method.
func funcCFG(t *testing.T, files []*ast.File, name string) *CFG {
	t.Helper()
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return NewCFG(fd.Body)
			}
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// heldAtMarker runs the held-lock analysis and returns the lock set in force
// immediately before the atomic node containing the integer marker, as a
// sorted list of receiver strings.
func heldAtMarker(t *testing.T, info *types.Info, g *CFG, marker int, must bool) []string {
	t.Helper()
	in, reached := HeldLocks(info, g, must)
	want := strconv.Itoa(marker)
	for _, b := range g.Blocks {
		if !reached[b.Index] {
			continue
		}
		cur := in[b.Index]
		for _, n := range b.Nodes {
			found := false
			VisitAtomic(n, func(x ast.Node) bool {
				if lit, ok := x.(*ast.BasicLit); ok && lit.Kind == token.INT && lit.Value == want {
					found = true
				}
				return !found
			})
			if found {
				var names []string
				for id := range cur {
					names = append(names, id.Expr)
				}
				sort.Strings(names)
				return names
			}
			cur = WalkLockOps(info, n, cur, nil)
		}
	}
	t.Fatalf("marker %d not found in any reached block", marker)
	return nil
}

const lockFixtureSrc = `package fixture

import "sync"

type T struct {
	mu    sync.Mutex
	other sync.RWMutex
	cond  *sync.Cond
}

func NewT() *T {
	t := &T{}
	t.cond = sync.NewCond(&t.mu)
	return t
}

func (t *T) condUnlock(b bool) int {
	t.mu.Lock()
	if b {
		t.mu.Unlock()
		return 1
	}
	x := 2
	t.mu.Unlock()
	return x
}

func (t *T) deferredUnlock(b bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b {
		_ = 3
	}
	_ = 4
}

func (t *T) deferredInBranch(b bool) {
	t.mu.Lock()
	if b {
		defer t.mu.Unlock()
		_ = 5
		return
	}
	t.mu.Unlock()
	_ = 6
}

func (t *T) maybeHeld(b bool) {
	if b {
		t.mu.Lock()
	}
	_ = 7
	if b {
		t.mu.Unlock()
	}
}

func (t *T) nested() {
	t.mu.Lock()
	t.other.RLock()
	_ = 8
	t.other.RUnlock()
	_ = 9
	t.mu.Unlock()
}
`

func TestHeldLocksConditionalUnlock(t *testing.T) {
	_, files, info := checkSyncString(t, lockFixtureSrc)
	g := funcCFG(t, files, "condUnlock")
	if got := heldAtMarker(t, info, g, 1, true); len(got) != 0 {
		t.Errorf("after unlock-in-branch: held = %v, want none", got)
	}
	if got := heldAtMarker(t, info, g, 2, true); !equalStrings(got, []string{"t.mu"}) {
		t.Errorf("on the still-locked path: held = %v, want [t.mu]", got)
	}
}

func TestHeldLocksDeferredUnlock(t *testing.T) {
	_, files, info := checkSyncString(t, lockFixtureSrc)
	g := funcCFG(t, files, "deferredUnlock")
	// defer t.mu.Unlock() runs at return: the lock stays held through the
	// whole body, on both the branch and the join.
	for _, m := range []int{3, 4} {
		if got := heldAtMarker(t, info, g, m, true); !equalStrings(got, []string{"t.mu"}) {
			t.Errorf("marker %d: held = %v, want [t.mu]", m, got)
		}
	}
}

func TestHeldLocksDeferInBranch(t *testing.T) {
	_, files, info := checkSyncString(t, lockFixtureSrc)
	g := funcCFG(t, files, "deferredInBranch")
	if got := heldAtMarker(t, info, g, 5, true); !equalStrings(got, []string{"t.mu"}) {
		t.Errorf("deferred-unlock branch: held = %v, want [t.mu]", got)
	}
	if got := heldAtMarker(t, info, g, 6, true); len(got) != 0 {
		t.Errorf("explicit-unlock branch: held = %v, want none", got)
	}
}

func TestHeldLocksMayVsMust(t *testing.T) {
	_, files, info := checkSyncString(t, lockFixtureSrc)
	g := funcCFG(t, files, "maybeHeld")
	if got := heldAtMarker(t, info, g, 7, true); len(got) != 0 {
		t.Errorf("must-held at conditional point = %v, want none", got)
	}
	if got := heldAtMarker(t, info, g, 7, false); !equalStrings(got, []string{"t.mu"}) {
		t.Errorf("may-held at conditional point = %v, want [t.mu]", got)
	}
}

func TestHeldLocksNested(t *testing.T) {
	_, files, info := checkSyncString(t, lockFixtureSrc)
	g := funcCFG(t, files, "nested")
	if got := heldAtMarker(t, info, g, 8, true); !equalStrings(got, []string{"t.mu", "t.other"}) {
		t.Errorf("inside nested region: held = %v, want [t.mu t.other]", got)
	}
	if got := heldAtMarker(t, info, g, 9, true); !equalStrings(got, []string{"t.mu"}) {
		t.Errorf("after inner RUnlock: held = %v, want [t.mu]", got)
	}
}

func TestCondBindings(t *testing.T) {
	_, files, info := checkSyncString(t, lockFixtureSrc)
	bind := CondBindings(info, files)
	var got []string
	for cond, lock := range bind {
		got = append(got, cond.Name()+"->"+lock.Name())
	}
	if !equalStrings(got, []string{"cond->mu"}) {
		t.Errorf("CondBindings = %v, want [cond->mu]", got)
	}
}

func TestLockClass(t *testing.T) {
	src := `package fixture

import "sync"

var globalMu sync.Mutex

type S struct{ mu sync.Mutex }

type outer struct{ s S }

func f(o *outer, s *S) {
	globalMu.Lock()
	s.mu.Lock()
	o.s.mu.Lock()
	var local sync.Mutex
	local.Lock()
}
`
	_, files, info := checkSyncString(t, src)
	var got []string
	ast.Inspect(files[0], func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, ok := ClassifyMutexOp(info, call)
		if !ok || op.Kind != OpLock {
			return true
		}
		if class, ok := LockClass(info, op.Recv); ok {
			got = append(got, class)
		} else {
			got = append(got, "<local>")
		}
		return true
	})
	want := []string{"fixture.globalMu", "fixture.S.mu", "fixture.S.mu", "<local>"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("LockClass sequence = %v, want %v", got, want)
	}
}

func equalStrings(a, b []string) bool {
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

// TestClassifyCondOp checks that Wait, Signal and Broadcast are recognized
// on a *sync.Cond (through a field or a local, parenthesized or not) and
// that same-named calls on other types are not.
func TestClassifyCondOp(t *testing.T) {
	const src = `package p

import "sync"

type T struct {
	mu   sync.Mutex
	cond *sync.Cond
	wg   sync.WaitGroup
}

type fake struct{}

func (fake) Wait()   {}
func (fake) Signal() {}

func (t *T) f() {
	t.cond.Wait()
	t.cond.Signal()
	c := t.cond
	(c).Broadcast()
	t.wg.Wait()
	var k fake
	k.Wait()
	k.Signal()
	t.mu.Lock()
	t.mu.Unlock()
}
`
	_, files, info := checkSyncString(t, src)
	var got []string
	ast.Inspect(files[0], func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, ok := ClassifyCondOp(info, call)
		if !ok {
			return true
		}
		if op.Call != call {
			t.Errorf("CondOp.Call is not the classified call")
		}
		got = append(got, strconv.Itoa(int(op.Kind))+":"+types.ExprString(op.Recv))
		return true
	})
	want := []string{
		strconv.Itoa(int(CondWait)) + ":t.cond",
		strconv.Itoa(int(CondSignal)) + ":t.cond",
		strconv.Itoa(int(CondBroadcast)) + ":(c)", // Recv is the selector's operand as written
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("classified %v, want %v", got, want)
	}
}
