package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"cachemind/internal/engine"
)

// TestWireCodesTable pins the v1 wire contract to the daemon's one
// wire-code table: every engine.Code constant declared in
// internal/engine has a wireCodes row, statusForCode writes it with
// that row's status, codeIndexForStatus buckets the status back into
// the same row, and README's status-code table documents the same
// status. A new code, a dropped row or a drifted README cell fails
// here rather than reaching a client as an unplanned 500.
func TestWireCodesTable(t *testing.T) {
	codes := declaredCodes(t, filepath.Join("..", "..", "internal", "engine"))
	if len(codes) == 0 {
		t.Fatal("found no engine.Code constants — the parser lost track of errors.go")
	}
	documented := readmeStatuses(t, filepath.Join("..", "..", "README.md"))
	if wireCodes[0].code != "ok" {
		t.Fatalf("wireCodes[0] = %q, want \"ok\" (2xx responses bucket there)", wireCodes[0].code)
	}
	for _, c := range codes {
		row := -1
		for i, w := range wireCodes {
			if w.code == c {
				row = i
			}
		}
		if row < 1 {
			t.Errorf("engine code %q has no wireCodes row", c)
			continue
		}
		status := statusForCode(engine.Code(c))
		if got := codeIndexForStatus(status); got != row {
			t.Errorf("code %q: status %d buckets into wireCodes row %d (%q), want row %d",
				c, status, got, wireCodes[got].code, row)
		}
		doc, ok := documented[c]
		if !ok {
			t.Errorf("code %q has no README status-table row \"| `%s` | %d |\"", c, c, status)
			continue
		}
		if doc != status {
			t.Errorf("code %q: README documents HTTP %d, the daemon writes %d", c, doc, status)
		}
	}
	declared := map[string]bool{"ok": true}
	for _, c := range codes {
		declared[c] = true
	}
	for _, w := range wireCodes {
		if !declared[w.code] {
			t.Errorf("wireCodes row %q names no engine.Code constant", w.code)
		}
	}
}

// declaredCodes parses the non-test Go files in dir and returns the
// string value of every constant declared with type Code, in source
// order.
func declaredCodes(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var codes []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if typ, ok := vs.Type.(*ast.Ident); !ok || typ.Name != "Code" {
					continue
				}
				for i, n := range vs.Names {
					var lit *ast.BasicLit
					if i < len(vs.Values) {
						lit, _ = vs.Values[i].(*ast.BasicLit)
					}
					if lit == nil || lit.Kind != token.STRING {
						t.Fatalf("%s: Code constant %s is not a string literal", fset.Position(n.Pos()), n.Name)
					}
					s, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					codes = append(codes, s)
				}
			}
		}
	}
	return codes
}

// readmeStatuses reads the README's status-code table rows, shaped
// "| `code` | status | meaning |", into code → status.
func readmeStatuses(t *testing.T, path string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `([a-z-]+)` \\| ([0-9]{3}) \\|")
	out := map[string]int{}
	for _, m := range row.FindAllStringSubmatch(string(data), -1) {
		status, _ := strconv.Atoi(m[2])
		if prev, dup := out[m[1]]; dup && prev != status {
			t.Errorf("README documents code %q twice, as %d and %d", m[1], prev, status)
		}
		out[m[1]] = status
	}
	return out
}
