// Package linttest is an analysistest-style harness for cachemindlint
// fixtures, self-contained on the stdlib.
//
// A fixture is a directory of Go files under
// internal/lint/testdata/src/<name>. Expected findings are declared
// inline with want comments:
//
//	x := fmt.Sprintf("%d", n) // want "Sprintf allocates"
//
// The string is a regular expression matched against diagnostics the
// analyzer reports on that line. Every want must be matched by a
// diagnostic and every diagnostic must match a want, so fixtures prove
// both directions: the analyzer fires on deliberate violations and
// stays silent on the sanctioned idioms around them.
//
// Fixtures are type-checked with the source importer, so they may
// import the stdlib freely (keep the imports small — the source
// importer compiles the transitive closure from source on every run).
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"cachemind/internal/lint"
)

// Run analyzes the fixture package testdata/src/<pkg> (relative to the
// calling test's working directory) with a and compares diagnostics
// against the fixture's want comments.
func Run(t *testing.T, a *lint.Analyzer, pkg string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("fixture %s has no Go files", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tcfg := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := tcfg.Check("fixture/"+pkg, fset, files, info)
	if err != nil {
		t.Fatalf("typechecking fixture: %v", err)
	}

	// Collect want expectations: file:line -> list of (regexp, matched).
	type want struct {
		re      *regexp.Regexp
		raw     string
		line    int
		file    string
		matched bool
	}
	var wants []*want
	wantRE := regexp.MustCompile(`//\s*want\s+(.*)`)
	// Patterns may be double-quoted ("...", \" escapes) or raw
	// backquoted (`...`), analysistest-style.
	argRE := regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, arg := range argRE.FindAllStringSubmatch(m[1], -1) {
					pat := arg[2]
					if arg[1] != "" || arg[2] == "" {
						pat = strings.ReplaceAll(arg[1], `\"`, `"`)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, &want{re: re, raw: pat, line: pos.Line, file: pos.Filename})
				}
			}
		}
	}

	var diags []lint.Diagnostic
	pass := lint.NewPass(a, fset, files, tpkg, info, func(d lint.Diagnostic) {
		diags = append(diags, d)
	})
	if err := a.Run(pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}

	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s", fmtPos(pos), d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("expected diagnostic matching %q at %s:%d, got none", w.raw, filepath.Base(w.file), w.line)
		}
	}
}

func fmtPos(p token.Position) string {
	return fmt.Sprintf("%s:%d:%d", filepath.Base(p.Filename), p.Line, p.Column)
}
