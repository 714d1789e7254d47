// Package analysistest runs a framework.Analyzer over GOPATH-style
// testdata packages and checks its diagnostics against // want comments,
// mirroring golang.org/x/tools/go/analysis/analysistest closely enough
// that the test packages would port unchanged.
//
// Layout: <dir>/src/<pkgpath>/*.go. A package under testdata may import
// other testdata packages (stubs of real repo packages, placed at their
// real import paths so path-matching analyzers fire) — testdata wins over
// the real package of the same path — and any stdlib package, resolved
// from compiler export data via `go list -export`.
//
// Expectations: a comment of the form
//
//	// want `regexp`
//	// want "regexp" `another`
//
// on any line asserts that each listed pattern matches the message of a
// distinct diagnostic reported on that line. Diagnostics without a
// matching want, and wants without a matching diagnostic, fail the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis/framework"
)

// Run loads each pkgpath from dir/src and applies a to it, comparing
// diagnostics against the packages' want comments. A module-wide analyzer
// sees all the listed packages at once.
func Run(t *testing.T, dir string, a *framework.Analyzer, pkgpaths ...string) {
	t.Helper()
	ld := &loader{
		root: filepath.Join(dir, "src"),
		fset: token.NewFileSet(),
		pkgs: make(map[string]*framework.Unit),
	}
	var units []*framework.Unit
	for _, path := range pkgpaths {
		u, err := ld.loadSource(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		units = append(units, u)
	}
	findings, err := framework.Analyze(units, []*framework.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, u := range units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					res, err := parseWants(c.Text)
					if err != nil {
						t.Fatalf("%s: %v", ld.fset.Position(c.Pos()), err)
					}
					if len(res) > 0 {
						posn := ld.fset.Position(c.Pos())
						k := key{posn.Filename, posn.Line}
						wants[k] = append(wants[k], res...)
					}
				}
			}
		}
	}

	for _, f := range findings {
		k := key{f.Pos.Filename, f.Pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re != nil && re.MatchString(f.Message) {
				wants[k][i] = nil // consume
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", f.Pos, f.Message)
		}
	}
	var keys []key
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, re := range wants[k] {
			if re != nil {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
}

var wantArgRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// parseWants extracts the regexps of a `// want` comment, or nil.
func parseWants(comment string) ([]*regexp.Regexp, error) {
	text, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(comment, "//")), "want ")
	if !ok {
		return nil, nil
	}
	ms := wantArgRE.FindAllStringSubmatch(text, -1)
	if len(ms) == 0 {
		return nil, fmt.Errorf("malformed want comment %q: no quoted or backquoted pattern", comment)
	}
	var res []*regexp.Regexp
	for _, m := range ms {
		pat := m[1]
		if pat == "" {
			pat = m[2]
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, fmt.Errorf("bad want pattern %q: %v", pat, err)
		}
		res = append(res, re)
	}
	return res, nil
}

type loader struct {
	root string // testdata/src
	fset *token.FileSet
	pkgs map[string]*framework.Unit
	gc   types.Importer
}

func (ld *loader) loadSource(path string) (*framework.Unit, error) {
	if p, ok := ld.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	ld.pkgs[path] = nil // cycle marker
	dir := filepath.Join(ld.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := framework.NewTypesInfo()
	conf := &types.Config{Importer: importerFunc(ld.importPkg)}
	pkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	u := &framework.Unit{ID: path, Fset: ld.fset, Files: files, Pkg: pkg, Info: info}
	ld.pkgs[path] = u
	return u, nil
}

// importPkg resolves an import from a testdata package: testdata source
// first (stubs shadow real packages), stdlib export data otherwise.
func (ld *loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, err := os.Stat(filepath.Join(ld.root, filepath.FromSlash(path))); err == nil {
		u, err := ld.loadSource(path)
		if err != nil {
			return nil, err
		}
		return u.Pkg, nil
	}
	if ld.gc == nil {
		ld.gc = importer.ForCompiler(ld.fset, "gc", exportLookup)
	}
	return ld.gc.Import(path)
}

// exportLookup locates compiler export data through the toolchain; `go
// list -export` builds it into the cache if missing.
func exportLookup(path string) (io.ReadCloser, error) {
	out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", "--", path).Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok {
			msg = string(ee.Stderr)
		}
		return nil, fmt.Errorf("go list -export %s: %s", path, msg)
	}
	file := strings.TrimSpace(string(out))
	if file == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
