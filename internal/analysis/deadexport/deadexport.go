// Package deadexport flags an exported identifier of an internal package
// that no non-test code refers to. An exported name is a promise to other
// packages; one that only tests reach is a test-only entry point, and one
// that nothing reaches is dead code. Either should be unexported or
// deleted.
//
// The check is module-wide: a declaration is judged by every loaded unit,
// including the Caller units of a nested module (bench/), which import the
// module's internal packages through a replace directive. Units type-check
// separately, so one declaration is a different types.Object in each unit
// that imports it; objects are matched by key — package path, receiver or
// struct type, and name.
//
// A declaration counts as used when an identifier in a non-test file
// outside the declaration itself refers to it (a method's receiver list
// does not count for its type). Declarations are exempt by rule only:
//
//   - a method that satisfies an interface: one declared anywhere in the
//     program (source or export data), or one of the interfaces package
//     errors asserts on internally (Unwrap, Is, As), which export data
//     does not show;
//   - every exported name of a package that only _test.go files import (a
//     test-support package such as internal/simnet). Its non-test files
//     still count as references to other packages' names;
//   - the methods and fields of an internal type that a public package
//     re-exports through a type alias (graph.Digraph = igraph.Digraph):
//     they are public API, whoever calls them.
//
// There is no opt-out directive.
package deadexport

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the deadexport pass.
var Analyzer = &framework.Analyzer{
	Name:      "deadexport",
	Doc:       "flags exported identifiers of internal packages that no non-test file outside their declaration refers to",
	RunModule: run,
}

// errorsProbes are the anonymous interfaces package errors asserts on in
// Unwrap, Is and As. They are part of every program that links package
// errors, but compiler export data carries no trace of them.
const errorsProbes = `package probes

type unwrap interface{ Unwrap() error }
type unwrapAll interface{ Unwrap() []error }
type is interface{ Is(error) bool }
type as interface{ As(any) bool }
`

type checker struct {
	pass      *framework.ModulePass
	declPaths map[string]bool         // internal packages under judgement
	owners    map[*types.Var]string   // field -> struct type name, for declPaths
	ownersOf  map[*types.Package]bool // packages owners already covers
	decls     map[string]def          // key -> declaration under judgement
	used      map[string]bool         // keys referenced or exempt
	ifaces    map[string][][]string   // method signature -> interfaces holding it
	seenIface map[string]bool         // interface identity, to add each once
	scanned   map[string]bool         // package scopes already searched for interfaces
	testOnly  map[string]bool         // packages only _test.go files import
}

func run(pass *framework.ModulePass) error {
	c := &checker{
		pass:      pass,
		declPaths: make(map[string]bool),
		owners:    make(map[*types.Var]string),
		ownersOf:  make(map[*types.Package]bool),
		decls:     make(map[string]def),
		used:      make(map[string]bool),
		ifaces:    make(map[string][][]string),
		seenIface: make(map[string]bool),
		scanned:   make(map[string]bool),
		testOnly:  testOnlyPackages(pass),
	}
	for _, u := range pass.Units {
		if path := u.Pkg.Path(); !u.Caller && isInternal(path) && !c.testOnly[path] {
			c.declPaths[path] = true
		}
	}
	for _, u := range pass.Units {
		c.indexOwners(u.Pkg)
		if c.declPaths[u.Pkg.Path()] {
			c.collectDecls(u)
		}
	}
	if err := c.collectInterfaces(); err != nil {
		return err
	}
	for _, u := range pass.Units {
		c.collectRefs(u)
		if !u.Caller && !isInternal(u.Pkg.Path()) && u.Pkg.Name() != "main" {
			c.exemptAliased(u)
		}
		if c.declPaths[u.Pkg.Path()] {
			c.exemptImplementations(u)
		}
	}

	for k, d := range c.decls { // framework.Analyze sorts the findings
		if !c.used[k] {
			pass.Reportf(d.pos, "exported %s has no reference from a non-test file outside its declaration; unexport or delete it", d.name)
		}
	}
	return nil
}

// isInternal reports whether path has an "internal" element.
func isInternal(path string) bool {
	for _, elem := range strings.Split(path, "/") {
		if elem == "internal" {
			return true
		}
	}
	return false
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}

// testOnlyPackages returns the packages that some _test.go file imports
// and no other file does.
func testOnlyPackages(pass *framework.ModulePass) map[string]bool {
	byTest, byCode := make(map[string]bool), make(map[string]bool)
	for _, u := range pass.Units {
		for _, f := range u.Files {
			into := byCode
			if isTestFile(pass.Fset, f) {
				into = byTest
			}
			for _, spec := range f.Imports {
				if path, err := strconv.Unquote(spec.Path.Value); err == nil {
					into[path] = true
				}
			}
		}
	}
	only := make(map[string]bool)
	for path := range byTest {
		if !byCode[path] {
			only[path] = true
		}
	}
	return only
}

// indexOwners records the struct type of every field of the packages
// under judgement that pkg can see, so a field's key names its type.
func (c *checker) indexOwners(pkg *types.Package) {
	if c.ownersOf[pkg] {
		return
	}
	c.ownersOf[pkg] = true
	if c.declPaths[pkg.Path()] {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					c.owners[st.Field(i)] = name
				}
			}
		}
	}
	for _, imp := range pkg.Imports() {
		c.indexOwners(imp)
	}
}

// key names obj across units, or returns "" for an object that is never
// under judgement (a local, a field of an unnamed struct, a universe name).
func (c *checker) key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	switch obj := obj.(type) {
	case *types.Func:
		if recv := obj.Origin().Type().(*types.Signature).Recv(); recv != nil {
			if owner := typeName(recv.Type()); owner != "" {
				return path + "." + owner + "." + obj.Name()
			}
			return ""
		}
	case *types.Var:
		if obj.IsField() {
			if owner, ok := c.owners[obj.Origin()]; ok {
				return path + "." + owner + "." + obj.Name()
			}
			return ""
		}
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return path + "." + obj.Name()
}

// typeName returns the name of the named type t (or *t), or "".
func typeName(t types.Type) string {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Origin().Obj().Name()
	}
	return ""
}

// A def is one exported name a top-level declaration introduces.
type def struct {
	key  string
	pos  token.Pos
	name string // as reported: Name, Type.Method or Type.Field
}

// defs returns the exported names top-level declaration d introduces:
// package-level names, methods, direct fields of named struct types and
// explicit methods of named interfaces. Embedded fields are left out:
// they exist for what they promote.
func (c *checker) defs(u *framework.Unit, d ast.Decl) []def {
	var out []def
	add := func(id *ast.Ident, name string) {
		if id.IsExported() {
			if k := c.key(u.Info.Defs[id]); k != "" {
				out = append(out, def{key: k, pos: id.Pos(), name: name})
			}
		}
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		name := d.Name.Name
		if d.Recv != nil && len(d.Recv.List) == 1 {
			name = typeName(u.Info.TypeOf(d.Recv.List[0].Type)) + "." + name
		}
		add(d.Name, name)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch spec := spec.(type) {
			case *ast.ValueSpec:
				for _, id := range spec.Names {
					add(id, id.Name)
				}
			case *ast.TypeSpec:
				add(spec.Name, spec.Name.Name)
				var list *ast.FieldList
				switch t := spec.Type.(type) {
				case *ast.StructType:
					list = t.Fields
				case *ast.InterfaceType:
					list = t.Methods
				}
				if list == nil || spec.Assign.IsValid() {
					continue
				}
				for _, field := range list.List {
					for _, id := range field.Names {
						add(id, spec.Name.Name+"."+id.Name)
					}
				}
			}
		}
	}
	return out
}

// collectDecls records the exported declarations of u's non-test files.
func (c *checker) collectDecls(u *framework.Unit) {
	for _, f := range u.Files {
		if isTestFile(c.pass.Fset, f) {
			continue
		}
		for _, d := range f.Decls {
			for _, df := range c.defs(u, d) {
				if _, dup := c.decls[df.key]; !dup {
					c.decls[df.key] = df
				}
			}
		}
	}
}

// collectRefs marks every key that u's non-test files refer to from
// outside the key's own declaration.
func (c *checker) collectRefs(u *framework.Unit) {
	for _, f := range u.Files {
		if isTestFile(c.pass.Fset, f) {
			continue
		}
		for _, d := range f.Decls {
			self := make(map[string]bool)
			for _, df := range c.defs(u, d) {
				self[df.key] = true
			}
			visit := func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if k := c.key(u.Info.Uses[id]); k != "" && !self[k] {
						c.used[k] = true
					}
				}
				return true
			}
			if fn, ok := d.(*ast.FuncDecl); ok {
				// The receiver list names the method's own type.
				ast.Inspect(fn.Type, visit)
				if fn.Body != nil {
					ast.Inspect(fn.Body, visit)
				}
				continue
			}
			ast.Inspect(d, visit)
		}
	}
}

// exemptAliased marks the methods and fields of every internal type that
// public unit u re-exports through a type alias: they are public API.
func (c *checker) exemptAliased(u *framework.Unit) {
	scope := u.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() || !tn.Exported() {
			continue
		}
		named, ok := types.Unalias(tn.Type()).(*types.Named)
		if !ok || named.Obj().Pkg() == nil || !c.declPaths[named.Obj().Pkg().Path()] {
			continue
		}
		for _, obj := range aliasSurface(named) {
			if k := c.key(obj); k != "" {
				c.used[k] = true
			}
		}
	}
}

// aliasSurface returns the exported methods of *named and the exported
// fields of named, promoted ones included.
func aliasSurface(named *types.Named) []types.Object {
	var objs []types.Object
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if obj := ms.At(i).Obj(); obj.Exported() {
			objs = append(objs, obj)
		}
	}
	var fields func(t types.Type, seen map[types.Type]bool)
	fields = func(t types.Type, seen map[types.Type]bool) {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || seen[t] {
			return
		}
		seen[t] = true
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Exported() {
				objs = append(objs, f)
			}
			if f.Embedded() {
				fields(f.Type(), seen)
			}
		}
	}
	fields(named, make(map[types.Type]bool))
	return objs
}

// collectInterfaces gathers every interface of the program: the named
// interfaces in the scope of each package a unit can see, the interface
// types of the units' expressions, and package errors' probes.
func (c *checker) collectInterfaces() error {
	for _, u := range c.pass.Units {
		c.scanScopes(u.Pkg)
		for _, tv := range u.Info.Types {
			c.addInterface(tv.Type)
		}
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "probes.go", errorsProbes, 0)
	if err != nil {
		return err
	}
	pkg, err := new(types.Config).Check("probes", fset, []*ast.File{f}, nil)
	if err != nil {
		return err
	}
	c.scanScopes(pkg)
	return nil
}

func (c *checker) scanScopes(pkg *types.Package) {
	if c.scanned[pkg.Path()] {
		return
	}
	c.scanned[pkg.Path()] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			c.addInterface(tn.Type())
		}
	}
	for _, imp := range pkg.Imports() {
		c.scanScopes(imp)
	}
}

// addInterface indexes t's method signatures if t is a non-empty method
// set interface.
func (c *checker) addInterface(t types.Type) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 || !it.IsMethodSet() {
		return
	}
	sigs := make([]string, it.NumMethods())
	for i := range sigs {
		m := it.Method(i)
		sigs[i] = signature(m.Name(), m.Type().(*types.Signature))
	}
	id := strings.Join(sigs, ";")
	if c.seenIface[id] {
		return
	}
	c.seenIface[id] = true
	for _, s := range sigs {
		c.ifaces[s] = append(c.ifaces[s], sigs)
	}
}

// signature renders a method's name and parameter and result types with
// full package paths, so it compares equal across units.
func signature(name string, sig *types.Signature) string {
	var b bytes.Buffer
	b.WriteString(name)
	tuple := func(t *types.Tuple) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			types.WriteType(&b, t.At(i).Type(), (*types.Package).Path)
		}
		b.WriteByte(')')
	}
	tuple(sig.Params())
	if sig.Variadic() {
		b.WriteString("...")
	}
	tuple(sig.Results())
	return b.String()
}

// exemptImplementations marks the methods of u's named types that
// satisfy an interface of the program: the type's method set (through a
// pointer) holds every method of the interface.
func (c *checker) exemptImplementations(u *framework.Unit) {
	scope := u.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		have := make(map[string]types.Object, ms.Len())
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			have[signature(m.Name(), m.Type().(*types.Signature))] = m
		}
		for sig, m := range have {
			for _, iface := range c.ifaces[sig] {
				if satisfies(have, iface) {
					if k := c.key(m); k != "" {
						c.used[k] = true
					}
					break
				}
			}
		}
	}
}

func satisfies(have map[string]types.Object, iface []string) bool {
	for _, s := range iface {
		if _, ok := have[s]; !ok {
			return false
		}
	}
	return true
}
