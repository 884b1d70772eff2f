package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

func TestPkgPathHas(t *testing.T) {
	cases := []struct {
		path, want string
		ok         bool
	}{
		{"eventmatch/internal/match", "internal/match", true},
		{"eventmatch/internal/match", "internal", true},
		{"eventmatch/internal/match", "match", true},
		{"internal/match", "internal/match", true},
		{"eventmatch/internal/matchfoo", "internal/match", false},
		{"eventmatch/internal/pattern", "internal/match", false},
		{"eventmatch/xinternal/match", "internal/match", false},
		{"eventmatch/internal/match", "internal/match/extra", false},
		{"eventmatch", "", false},
	}
	for _, c := range cases {
		if got := PkgPathHas(c.path, c.want); got != c.ok {
			t.Errorf("PkgPathHas(%q, %q) = %v, want %v", c.path, c.want, got, c.ok)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "a.go", Line: 3, Column: 7},
		Analyzer: "mapiter",
		Message:  "range over map",
	}
	want := "a.go:3:7: [mapiter] range over map"
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// checkString type-checks one synthetic file for white-box tests.
func checkString(t *testing.T, src string) (*token.FileSet, []*ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := newInfo()
	conf := types.Config{}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return fset, []*ast.File{f}, pkg, info
}

// TestIgnoreDirectives verifies that //matchlint:ignore suppresses findings
// on its own line and the next line, for the named analyzers only, and that
// a directive without the required `-- reason` suppresses nothing and is
// itself reported.
func TestIgnoreDirectives(t *testing.T) {
	const src = `package p

func a() {}

//matchlint:ignore probe -- intentional
func b() {}

//matchlint:ignore other,probe -- multi-analyzer directive
func c() {}

//matchlint:ignore other -- different analyzer
func d() {}

//matchlint:ignore probe
func e() {}
`
	probe := &Analyzer{
		Name: "probe",
		Doc:  "reports every function declaration",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok {
						pass.Reportf(fd.Pos(), "func %s", fd.Name.Name)
					}
				}
			}
			return nil
		},
	}
	fset, files, pkg, info := checkString(t, src)
	diags, err := RunPackages([]*Package{{Path: pkg.Path(), Fset: fset, Files: files, Types: pkg, Info: info}}, []*Analyzer{probe})
	if err != nil {
		t.Fatalf("RunPackages: %v", err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+":"+d.Message)
	}
	want := []string{
		"probe:func a",
		"probe:func d",
		"ignore:matchlint:ignore directive requires a reason: //matchlint:ignore <analyzers> -- <reason>",
		"probe:func e",
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("surviving diagnostics = %v, want %v", got, want)
	}
}

// TestRunLoadsModulePackages smokes the offline loader end to end: go list
// -export populates export data, and the type-checked package reaches the
// analyzer with its files and info attached.
func TestRunLoadsModulePackages(t *testing.T) {
	seen := map[string]bool{}
	probe := &Analyzer{
		Name: "probe",
		Doc:  "records visited packages",
		Run: func(pass *Pass) error {
			seen[pass.Pkg.Path()] = true
			if len(pass.Files) == 0 {
				t.Errorf("package %s loaded with no files", pass.Pkg.Path())
			}
			if pass.TypesInfo == nil || len(pass.TypesInfo.Defs) == 0 {
				t.Errorf("package %s loaded without type info", pass.Pkg.Path())
			}
			return nil
		},
	}
	diags, err := Run("", []string{"eventmatch/internal/event"}, []*Analyzer{probe})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !seen["eventmatch/internal/event"] {
		t.Fatalf("loader never visited eventmatch/internal/event (saw %v)", seen)
	}
	if len(diags) != 0 {
		t.Errorf("probe analyzer reported %d diagnostics, want 0", len(diags))
	}
}

// TestModulePassReportf checks that findings a module-scope analyzer reports
// through ModulePass.Reportf carry the analyzer's name and position, and pass
// through the same ignore directives as per-package findings.
func TestModulePassReportf(t *testing.T) {
	const src = `package p

func a() {}

//matchlint:ignore modprobe -- intentional
func b() {}

func c() {}
`
	probe := &Analyzer{
		Name: "modprobe",
		Doc:  "reports every function declaration of every package",
		RunModule: func(pass *ModulePass) error {
			for _, pkg := range pass.Pkgs {
				for _, f := range pkg.Files {
					for _, decl := range f.Decls {
						if fd, ok := decl.(*ast.FuncDecl); ok {
							pass.Reportf(fd.Pos(), "func %s in %s", fd.Name.Name, pkg.Path)
						}
					}
				}
			}
			return nil
		},
	}
	fset, files, pkg, info := checkString(t, src)
	diags, err := RunPackages([]*Package{{Path: pkg.Path(), Fset: fset, Files: files, Types: pkg, Info: info}}, []*Analyzer{probe})
	if err != nil {
		t.Fatalf("RunPackages: %v", err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.String())
	}
	want := []string{
		"fixture.go:3:1: [modprobe] func a in p",
		"fixture.go:8:1: [modprobe] func c in p",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("diagnostics = %q, want %q", got, want)
	}
}
