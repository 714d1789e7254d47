package analysis_test

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestAPISurface holds the public packages to their committed surface,
// api/<name>.txt, in the manner of Go's api/go1.*.txt: one sorted line per
// exported name, regenerated here from the packages' export data. The
// methods and fields of an internal type that a public package re-exports
// through an alias are listed under the alias, since callers reach them.
// A change of the public surface therefore shows in review as a change of
// these files. On a mismatch the test prints the regenerated file.
func TestAPISurface(t *testing.T) {
	root := moduleRoot(t)
	for _, name := range []string{"betweenness", "graph"} {
		path := "repro/" + name
		pkg := importExport(t, root, path)
		got := strings.Join(surface(pkg), "\n") + "\n"
		file := filepath.Join(root, "api", name+".txt")
		want, err := os.ReadFile(file)
		if err != nil {
			t.Errorf("%v; the regenerated surface is:\n%s", err, got)
			continue
		}
		if got == string(want) {
			continue
		}
		var diff []string
		wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
		gotLines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
		for _, l := range wantLines {
			if !slices.Contains(gotLines, l) {
				diff = append(diff, "-"+l)
			}
		}
		for _, l := range gotLines {
			if !slices.Contains(wantLines, l) {
				diff = append(diff, "+"+l)
			}
		}
		t.Errorf("the exported surface of %s differs from api/%s.txt:\n%s\n\nregenerated api/%s.txt:\n%s",
			path, name, strings.Join(diff, "\n"), name, got)
	}
}

// importExport type-checks path from the compiler export data that `go
// list -export` builds, which carries exactly the non-test declarations.
func importExport(t *testing.T, root, path string) *types.Package {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-f", "{{.ImportPath}}={{.Export}}", path)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -export %s: %v", path, err)
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if p, file, ok := strings.Cut(line, "="); ok {
			exports[p] = file
		}
	}
	imp := importer.ForCompiler(token.NewFileSet(), "gc", func(p string) (io.ReadCloser, error) {
		return os.Open(exports[p])
	})
	pkg, err := imp.Import(path)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// surface lists pkg's exported names, sorted:
//
//	pkg P, const NAME TYPE = VALUE
//	pkg P, var NAME TYPE
//	pkg P, func NAME SIGNATURE
//	pkg P, type NAME UNDERLYING        (struct or interface: the keyword)
//	pkg P, type NAME = TARGET          (an alias)
//	pkg P, type NAME struct, FIELD TYPE
//	pkg P, type NAME interface, METHOD SIGNATURE
//	pkg P, method (RECV) METHOD SIGNATURE
//
// Types of pkg, and types pkg names through an alias, print unqualified
// (but for the alias's own target); public packages print by name,
// internal ones by path.
func surface(pkg *types.Package) []string {
	scope := pkg.Scope()
	local := make(map[*types.TypeName]string) // alias targets -> alias name
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() || !tn.Exported() {
			continue
		}
		switch target := tn.Type().(*types.Alias).Rhs().(type) {
		case *types.Named:
			local[target.Obj()] = name
		case *types.Alias:
			local[target.Obj()] = name
		}
	}
	typeString := func(t types.Type) string {
		return types.TypeString(t, func(p *types.Package) string {
			if p == pkg {
				return ""
			}
			if strings.Contains(p.Path(), "/internal/") {
				return p.Path()
			}
			return p.Name()
		})
	}
	str := func(t types.Type) string {
		s := typeString(t)
		for obj, alias := range local {
			re := regexp.MustCompile(regexp.QuoteMeta(obj.Pkg().Path()+"."+obj.Name()) + `\b`)
			s = re.ReplaceAllLiteralString(s, alias)
		}
		return s
	}
	sig := func(s *types.Signature) string { return strings.TrimPrefix(str(s), "func") }

	var lines []string
	add := func(format string, args ...any) {
		lines = append(lines, "pkg "+pkg.Path()+", "+fmt.Sprintf(format, args...))
	}
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Const:
			add("const %s %s = %s", name, str(obj.Type()), obj.Val().ExactString())
		case *types.Var:
			add("var %s %s", name, str(obj.Type()))
		case *types.Func:
			add("func %s%s", name, sig(obj.Type().(*types.Signature)))
		case *types.TypeName:
			typeLines(obj, name, add, typeString, str, sig)
		}
	}
	slices.Sort(lines)
	return lines
}

// typeLines lists type name (possibly an alias of an internal type) with
// its exported fields, interface methods and method set.
func typeLines(obj *types.TypeName, name string, add func(string, ...any), raw, str func(types.Type) string, sig func(*types.Signature) string) {
	t := obj.Type()
	if obj.IsAlias() {
		add("type %s = %s", name, raw(types.Unalias(t)))
		named, ok := types.Unalias(t).(*types.Named)
		if !ok || !strings.Contains(named.Obj().Pkg().Path(), "/internal/") {
			return // a public target lists its own surface
		}
		t = named
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		add("type %s struct", name)
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i); f.Exported() {
				if f.Embedded() {
					add("type %s struct, embedded %s", name, str(f.Type()))
				} else {
					add("type %s struct, %s %s", name, f.Name(), str(f.Type()))
				}
			}
		}
	case *types.Interface:
		add("type %s interface", name)
		for i := 0; i < u.NumMethods(); i++ {
			if m := u.Method(i); m.Exported() {
				add("type %s interface, %s%s", name, m.Name(), sig(m.Type().(*types.Signature)))
			}
		}
		return
	default:
		add("type %s %s", name, str(u))
	}
	value := types.NewMethodSet(t)
	ptr := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ptr.Len(); i++ {
		m := ptr.At(i).Obj()
		if !m.Exported() {
			continue
		}
		recv := "*" + name
		if value.Lookup(m.Pkg(), m.Name()) != nil {
			recv = name
		}
		add("method (%s) %s%s", recv, m.Name(), sig(m.Type().(*types.Signature)))
	}
}
