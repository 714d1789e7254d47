package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Unit is one type-checked compilation unit ready for analysis: a plain
// package, a package augmented with its in-package _test.go files (go
// list's "pkg [pkg.test]" variant), or an external "pkg_test" package.
type Unit struct {
	ID    string // go list ImportPath, including " [pkg.test]" for variants
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Caller marks a unit of a module nested below the loaded one (bench/,
	// which imports this module through a replace directive): only
	// module-wide analyzers see it, and only as a source of references.
	Caller bool
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	ForTest    string
	Standard   bool
	DepOnly    bool
	ImportMap  map[string]string
	Module     *struct {
		Path      string
		GoVersion string
	}
}

// Load enumerates, parses, and type-checks the packages matching patterns
// (relative to dir), including their test files, using only the standard
// toolchain: `go list -test -deps -export -json` supplies the file sets,
// the import maps, and compiler export data for every dependency — even
// test-augmented variants — so no module proxy access is ever needed.
//
// For a package with in-package tests only the test-augmented variant is
// returned (its file set is a superset of the plain package's), so every
// file is analyzed exactly once. Every package of each module nested below
// dir follows as a Caller unit. All units share one FileSet.
func Load(dir string, patterns ...string) ([]*Unit, error) {
	fset := token.NewFileSet()
	units, err := loadModule(fset, dir, patterns, false)
	if err != nil {
		return nil, err
	}
	nested, err := nestedModules(dir)
	if err != nil {
		return nil, err
	}
	for _, m := range nested {
		callers, err := loadModule(fset, m, []string{"./..."}, true)
		if err != nil {
			return nil, err
		}
		units = append(units, callers...)
	}
	return units, nil
}

// loadModule loads the packages of patterns in the module at dir.
func loadModule(fset *token.FileSet, dir string, patterns []string, caller bool) ([]*Unit, error) {
	cmd := exec.Command("go", append([]string{
		"list", "-test", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,CgoFiles,ForTest,Standard,DepOnly,ImportMap,Module",
		"--"}, patterns...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	var pkgs []*listPkg
	exports := make(map[string]string) // ImportPath (incl. variants) -> export file
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	// A package whose in-package tests produced a "pkg [pkg.test]" variant
	// is analyzed through the variant only.
	hasVariant := make(map[string]bool)
	for _, p := range pkgs {
		if p.ForTest != "" && strings.HasPrefix(p.ImportPath, p.ForTest+" [") {
			hasVariant[p.ForTest] = true
		}
	}

	var units []*Unit
	for _, p := range pkgs {
		switch {
		case p.Standard || p.DepOnly || p.Module == nil:
			continue
		case strings.HasSuffix(p.ImportPath, ".test"):
			continue // synthesized test-main package
		case p.ForTest == "" && hasVariant[p.ImportPath]:
			continue // superseded by the test-augmented variant
		case len(p.GoFiles) == 0:
			continue
		case len(p.CgoFiles) > 0:
			return nil, fmt.Errorf("%s: cgo packages are not supported", p.ImportPath)
		}
		u, err := typecheck(fset, p, exports)
		if err != nil {
			return nil, err
		}
		u.Caller = caller
		units = append(units, u)
	}
	return units, nil
}

// nestedModules returns the directories below dir that hold a go.mod of
// their own, skipping testdata and the directories the go command ignores.
func nestedModules(dir string) ([]string, error) {
	var mods []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == dir {
			return err
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			mods = append(mods, path)
		}
		return nil
	})
	return mods, err
}

func typecheck(fset *token.FileSet, p *listPkg, exports map[string]string) (*Unit, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(p.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	goVersion := ""
	if p.Module != nil && p.Module.GoVersion != "" {
		goVersion = "go" + p.Module.GoVersion
	}
	conf := &types.Config{
		Importer:  exportImporter(fset, p.ImportMap, exports),
		GoVersion: goVersion,
	}
	info := NewTypesInfo()
	// The unit's package path is the base import path: test variants
	// compile under the path of the package they augment.
	path := p.ImportPath
	if p.ForTest != "" {
		if i := strings.Index(path, " ["); i >= 0 {
			path = path[:i]
		}
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
	}
	return &Unit{ID: p.ImportPath, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// NewTypesInfo returns a types.Info with every map analyzers consume.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// exportImporter builds a compilation-unit importer: source import paths
// resolve through the unit's ImportMap (vendoring, "pkg [pkg.test]"
// variants) and the resulting canonical path is loaded from compiler
// export data, the same scheme go vet's unitchecker uses.
func exportImporter(fset *token.FileSet, importMap map[string]string, exports map[string]string) types.Importer {
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		return gc.Import(path)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
