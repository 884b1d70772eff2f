package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed names the functions under internal/ that may have no
// caller in non-test code, one reason each. An entry is either a function's
// types.Func.FullName or a package path, which covers every function the
// package declares.
var unreachedAllowed = map[string]string{
	"eventmatch/internal/analysis/analysistest":            "test infrastructure: runs one analyzer over an annotated fixture tree",
	"eventmatch/internal/server/store/faultfs":             "test infrastructure: the fault-injecting filesystem behind the store's crash tests",
	"eventmatch/internal/server/client":                    "the typed Go adapter of the daemon's HTTP API; its tests drive every endpoint",
	"(*eventmatch/internal/match.Problem).BruteForce":      "reference oracle: exact A* is checked against it",
	"eventmatch/internal/assign.BruteForceMax":             "reference oracle: the Hungarian solver is checked against it",
	"eventmatch/internal/isomorph.FindSubgraphIsomorphism": "reference oracle: the Theorem 1 reduction is checked against it",
	"(eventmatch/internal/match.Mapping).Complete":         "test helper: the search tests assert complete mappings with it",
	"(*eventmatch/internal/match.Problem).NumPatterns":     "test helper: the search tests size pattern sets with it",
	"eventmatch/internal/pattern.MustAnd":                  "test helper: builds AND patterns in the pattern, match and stream tests",
	"eventmatch/internal/logio.ReadCSV":                    "strict wrapper of ReadCSVReport that the ingestion tests call",
	"eventmatch/internal/logio.ReadTraceLines":             "strict wrapper of ReadTraceLinesReport that the ingestion tests call",
	"eventmatch/internal/logio.ReadXES":                    "strict wrapper of ReadXESReport that the ingestion tests call",
	"(*eventmatch/internal/server.Server).Telemetry":       "test accessor: the server tests read the daemon's metrics through it",
	"(*eventmatch/internal/stream.Session).Accepted":       "test accessor: the session stress test reads it while appends race",
	"(*eventmatch/internal/stream.Session).Done":           "test accessor: the abort test checks that the writer has exited",
}

// TestInternalFuncsHaveCallers fails on any function or method declared in a
// non-test file under internal/ that no program reaches through non-test
// code. The roots are every function of a package outside internal/ (the
// eventmatch API, cmd/, examples/ and the perfbench module), main and init
// functions, package-level variable initializers, and every method that
// satisfies an interface, since a call through the interface reaches it
// without naming it. The module is loaded once without and once with the
// matchdebug tag; a function reached in either build counts as reached.
func TestInternalFuncsHaveCallers(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]token.Position{}
	reached := map[string]bool{} // from the program's roots
	kept := map[string]bool{}    // from those and the allowed functions
	for _, tags := range []string{"", "matchdebug"} {
		if tags != "" {
			t.Setenv("GOFLAGS", strings.TrimSpace(os.Getenv("GOFLAGS")+" -tags="+tags))
		}
		pkgs, err := Load(filepath.Join(root, "perfbench"), "./...", "eventmatch/...")
		if err != nil {
			t.Fatalf("Load (tags %q): %v", tags, err)
		}
		g := newReachGraph(pkgs)
		var allowed []*types.Func
		for fn, pos := range g.internal {
			declared[fn.FullName()] = pos
			if _, ok := allowEntry(fn.FullName()); ok {
				allowed = append(allowed, fn)
			}
		}
		for fn := range g.reach(nil) {
			reached[fn.FullName()] = true
		}
		for fn := range g.reach(allowed) {
			kept[fn.FullName()] = true
		}
	}

	used := map[string]bool{}
	var missing []string
	for name, pos := range declared {
		if reached[name] {
			continue
		}
		if entry, ok := allowEntry(name); ok {
			used[entry] = true
			continue
		}
		if kept[name] {
			continue // called by an allowed function
		}
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		missing = append(missing, fmt.Sprintf("%s: %s", pos, name))
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%d functions under internal/ have no caller outside tests; delete them or allow them with a reason:\n\t%s",
			len(missing), strings.Join(missing, "\n\t"))
	}
	for name := range unreachedAllowed {
		if !used[name] {
			t.Errorf("allowlist entry %s matches no unreached function; remove it", name)
		}
	}
}

// allowEntry returns the unreachedAllowed entry that covers the function
// with the given types.Func.FullName, "p/q.F" or "(*p/q.T).M".
func allowEntry(fullName string) (string, bool) {
	if _, ok := unreachedAllowed[fullName]; ok {
		return fullName, true
	}
	pkg := strings.TrimLeft(fullName, "(*")
	if i := strings.IndexByte(pkg, ')'); i >= 0 {
		pkg = pkg[:i]
	}
	pkg = pkg[:strings.LastIndexByte(pkg, '.')]
	_, ok := unreachedAllowed[pkg]
	return pkg, ok
}

// reachGraph is the reference graph of the loaded non-test code: an edge runs
// from each declared function to every function its body names.
type reachGraph struct {
	edges    map[*types.Func][]*types.Func
	roots    []*types.Func
	internal map[*types.Func]token.Position // functions declared under internal/
}

func newReachGraph(pkgs []*Package) *reachGraph {
	g := &reachGraph{
		edges:    map[*types.Func][]*types.Func{},
		internal: map[*types.Func]token.Position{},
	}
	for _, p := range pkgs {
		isInternal := PkgPathHas(p.Path, "internal")
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := p.Info.Defs[d.Name].(*types.Func)
					if fn == nil || !isInternal || (d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init")) {
						// Outside internal/, and main and init, are roots; so is
						// everything init's body names.
						g.roots = append(g.roots, named(p.Info, d)...)
						if fn != nil {
							g.roots = append(g.roots, fn)
						}
						continue
					}
					g.internal[fn] = p.Fset.Position(d.Name.Pos())
					g.edges[fn] = named(p.Info, d.Body)
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						g.roots = append(g.roots, named(p.Info, d)...)
					}
				}
			}
		}
	}
	g.roots = append(g.roots, interfaceMethods(pkgs)...)
	return g
}

// named returns the declared functions and methods that the identifiers
// under n refer to.
func named(info *types.Info, n ast.Node) []*types.Func {
	if n == nil {
		return nil
	}
	var out []*types.Func
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				out = append(out, fn.Origin())
			}
		}
		return true
	})
	return out
}

// reach returns every function reachable from the roots and extra.
func (g *reachGraph) reach(extra []*types.Func) map[*types.Func]bool {
	seen := map[*types.Func]bool{}
	stack := append(append([]*types.Func(nil), g.roots...), extra...)
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		stack = append(stack, g.edges[fn]...)
	}
	return seen
}

// interfaceMethods returns the methods of module types that implement some
// non-empty interface, declared in the loaded packages or anything they
// import, named or literal, for each method the interface lists. Promoted
// methods resolve to the embedded type's declaration.
func interfaceMethods(pkgs []*Package) []*types.Func {
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if visited[tp] {
			return
		}
		visited[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	var named []*types.Named
	for _, p := range pkgs {
		walk(p.Types)
		for _, tv := range p.Info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		for _, obj := range p.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					named = append(named, n)
				}
			}
		}
	}

	var out []*types.Func
	for _, n := range named {
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		generic := n.TypeParams().Len() > 0
		for _, it := range ifaces {
			if mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil {
				continue
			}
			// Implements is unspecified for uninstantiated generic types;
			// for those, matching method names is enough.
			if !generic && !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
					out = append(out, sel.Obj().(*types.Func).Origin())
				}
			}
		}
	}
	return out
}
