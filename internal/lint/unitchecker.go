package lint

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// This file implements the `go vet -vettool=` driver protocol (the
// unitchecker protocol), self-contained on the stdlib. go vet invokes
// the vettool once per package unit:
//
//	tool -flags          print the tool's flag schema as JSON ([])
//	tool -V=full         print a version line containing buildID=...
//	                     (go vet hashes it into its action cache key)
//	tool <unit>.cfg      analyze one package unit described by the
//	                     JSON config file; diagnostics on stderr as
//	                     file:line:col: message; exit 2 when findings
//	                     exist, 0 when clean
//
// The cfg names the package's Go files and, crucially, the export
// data of every dependency as compiled by the gc toolchain
// (ImportMap + PackageFile), which lets us type-check the unit with
// importer.ForCompiler without loading any source but our own —
// exactly how x/tools/go/analysis/unitchecker works, minus the fact
// plumbing (no analyzer in this suite uses cross-package facts; each
// reads only its own package).

// vetConfig mirrors the JSON unit config go vet writes. Fields we do
// not consume are listed for documentation but left untyped-free.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the cachemindlint entry point. It returns the process exit
// code: 0 clean, 1 operational failure, 2 findings.
func Main(args []string) int {
	if len(args) == 1 {
		switch {
		case args[0] == "-flags":
			// No tool-specific flags.
			fmt.Println("[]")
			return 0
		case strings.HasPrefix(args[0], "-V"):
			printVersion()
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return runUnit(args[0])
		}
	}
	fmt.Fprintf(os.Stderr, "cachemindlint: must be run via go vet -vettool=cachemindlint (got args %q)\n", args)
	return 1
}

// printVersion emits the -V=full line. go vet caches analysis results
// keyed on this string, so it embeds a content hash of the tool binary:
// rebuild the tool, bust the cache.
func printVersion() {
	name := filepath.Base(os.Args[0])
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil))
			}
			f.Close()
		}
	}
	fmt.Printf("%s version devel comments-go-here buildID=%s\n", name, id)
}

func runUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cachemindlint: reading config: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "cachemindlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// Always produce the (empty) facts file go vet expects, even for
	// units we skip — its absence fails the build action.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "cachemindlint: writing vetx output: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		// Dependency-only visit: nothing to analyze, no facts to export.
		return 0
	}
	// Test variants re-analyze the package with _test.go files mixed
	// in; the invariants guard production code and tests violate them
	// on purpose (fixtures, fault injection), so skip the variants —
	// the pure unit was or will be analyzed on its own.
	if strings.Contains(cfg.ImportPath, ".test") || strings.HasSuffix(cfg.ImportPath, "_test") || strings.Contains(cfg.ID, ".test") {
		return 0
	}

	diags, err := analyzeUnit(&cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "cachemindlint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	return 2
}

// analyzeUnit parses, type-checks, and runs the suite over one unit,
// returning rendered diagnostics sorted by position.
func analyzeUnit(cfg *vetConfig) ([]string, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for import %q", path)
		}
		return os.Open(file)
	}
	tcfg := types.Config{
		Importer:  importer.ForCompiler(fset, compiler, lookup),
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		Error:     func(error) {}, // collect via the returned error
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg, err := tcfg.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck: %v", err)
	}

	type posDiag struct {
		pos token.Position
		msg string
	}
	var all []posDiag
	for _, a := range Analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
		}
		pass.report = func(d Diagnostic) {
			all = append(all, posDiag{pos: fset.Position(d.Pos), msg: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		return a.msg < b.msg
	})
	out := make([]string, len(all))
	for i, d := range all {
		out[i] = fmt.Sprintf("%s: %s", d.pos, d.msg)
	}
	return out, nil
}
