// Package analysis is a minimal, dependency-free reimplementation of the
// core of golang.org/x/tools/go/analysis, sized for this repository's needs:
// it loads and type-checks the module's packages offline (resolving imports
// through the build cache's export data, so no network or external module is
// required), runs a set of Analyzers over them, and collects position-sorted
// diagnostics.
//
// The analyzers under internal/analysis/... machine-check the repository's
// load-bearing contracts — deterministic map iteration in scoring paths,
// context threading for anytime search, nil-receiver-safe telemetry, integer
// shard merges, and exhaustive operator-kind switches. cmd/matchlint is the
// multichecker binary that runs all of them; the analysistest subpackage
// runs a single analyzer over an annotated fixture tree.
//
// A diagnostic can be suppressed where nondeterminism or a bare
// context.Background is intentional with a directive comment on the flagged
// line or the line above it:
//
//	//matchlint:ignore mapiter -- random eviction victim is intentional
//
// The directive names one analyzer (or a comma-separated list) and must
// carry a reason after the ` -- ` separator; a reason-less directive is
// itself reported and suppresses nothing (see ignore.go). An ignore without
// a matching diagnostic is harmless.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant check. Unlike the x/tools original there
// are no facts, dependencies or flags — every analyzer is a pure function of
// a single type-checked package (Run) or of the whole loaded package set
// (RunModule, for cross-package invariants like lock ordering). Exactly one
// of the two must be set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	// By convention a short lowercase word ("mapiter").
	Name string

	// Doc is a one-paragraph description: first line is a summary, the rest
	// explains the invariant the analyzer guards.
	Doc string

	// Run inspects the package behind pass and reports findings through
	// pass.Reportf. A non-nil error aborts the whole run (reserved for
	// internal failures, not findings).
	Run func(pass *Pass) error

	// RunModule, when set instead of Run, is invoked once with every loaded
	// package. Module analyzers see the whole dependency slice at once —
	// the lockorder analyzer builds its acquisition graph here.
	RunModule func(pass *ModulePass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // the package's parsed source files, with comments
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass carries the whole loaded package set through one module-scope
// analyzer. Every package shares one FileSet (both loaders guarantee this),
// so Reportf can position any pos from any package.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// RunPackages applies every analyzer — per-package and module-scope alike —
// to the already-loaded packages and returns the surviving (non-ignored)
// diagnostics in file/line/column order, with one malformed-directive
// diagnostic per reason-less ignore.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	igns := make([]*ignoreSet, len(pkgs))
	for i, pkg := range pkgs {
		igns[i] = collectIgnores(pkg.Fset, pkg.Files)
	}

	var diags []Diagnostic
	for i, pkg := range pkgs {
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &pkgDiags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		diags = append(diags, igns[i].filter(pkgDiags)...)
	}

	if len(pkgs) > 0 {
		var modDiags []Diagnostic
		for _, a := range analyzers {
			if a.RunModule == nil {
				continue
			}
			pass := &ModulePass{
				Analyzer: a,
				Fset:     pkgs[0].Fset,
				Pkgs:     pkgs,
				diags:    &modDiags,
			}
			if err := a.RunModule(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
			}
		}
	next:
		for _, d := range modDiags {
			for _, ign := range igns {
				if ign.ignored(d) {
					continue next
				}
			}
			diags = append(diags, d)
		}
	}

	for _, ign := range igns {
		diags = append(diags, ign.malformed...)
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// Run loads the packages matched by patterns (relative to dir; "" means the
// current directory) and applies the analyzers. The returned diagnostics are
// sorted by position and already filtered through ignore directives.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return RunPackages(pkgs, analyzers)
}

// PkgPathHas reports whether pkgPath contains want as a contiguous run of
// path segments: PkgPathHas("eventmatch/internal/match", "internal/match")
// is true, but "internal/matchfoo" does not match "internal/match". The
// analyzers use it to scope themselves to the packages whose contract they
// guard while staying applicable to identically shaped test fixtures.
func PkgPathHas(pkgPath, want string) bool {
	segs := splitPath(pkgPath)
	wantSegs := splitPath(want)
	if len(wantSegs) == 0 || len(wantSegs) > len(segs) {
		return false
	}
outer:
	for i := 0; i+len(wantSegs) <= len(segs); i++ {
		for j, w := range wantSegs {
			if segs[i+j] != w {
				continue outer
			}
		}
		return true
	}
	return false
}

func splitPath(p string) []string {
	var segs []string
	for len(p) > 0 {
		i := 0
		for i < len(p) && p[i] != '/' {
			i++
		}
		if i > 0 {
			segs = append(segs, p[:i])
		}
		if i == len(p) {
			break
		}
		p = p[i+1:]
	}
	return segs
}
