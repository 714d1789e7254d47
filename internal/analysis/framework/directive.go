package framework

import (
	"go/ast"
	"go/token"
	"strings"
)

// A Directive is one machine-readable //bc:<name> comment. Directives are
// the repo's convention for talking to the repolint analyzers:
//
//	//bc:hotpath          — the function below must stay allocation-free
//	//bc:ctxok <reason>   — this context.Background()/TODO() is deliberate
//
// The directive must start the comment ("//bc:name", no space after //, in
// the style of //go:build) and may be followed by free-form arguments.
type Directive struct {
	Name string // e.g. "hotpath"
	Args string // rest of the line, trimmed
	Pos  token.Pos
	Line int // line the directive comment starts on
}

// Directives returns the //bc: directives of f, scanning every comment
// group once and caching per pass.
func (p *Pass) Directives(f *ast.File) []Directive {
	if p.directives == nil {
		p.directives = make(map[*ast.File][]Directive)
	}
	if ds, ok := p.directives[f]; ok {
		return ds
	}
	var ds []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//bc:")
			if !ok {
				continue
			}
			name, args, _ := strings.Cut(rest, " ")
			ds = append(ds, Directive{
				Name: strings.TrimSpace(name),
				Args: strings.TrimSpace(args),
				Pos:  c.Pos(),
				Line: p.Fset.Position(c.Pos()).Line,
			})
		}
	}
	p.directives[f] = ds
	return ds
}

// FuncHasDirective reports whether a //bc:<name> directive is attached to
// fn: inside its doc comment, or on a comment line directly above the
// declaration (where a blank line would detach a doc comment).
func (p *Pass) FuncHasDirective(f *ast.File, fn *ast.FuncDecl, name string) bool {
	declLine := p.Fset.Position(fn.Pos()).Line
	var docStart, docEnd int
	if fn.Doc != nil {
		docStart = p.Fset.Position(fn.Doc.Pos()).Line
		docEnd = p.Fset.Position(fn.Doc.End()).Line
	}
	for _, d := range p.Directives(f) {
		if d.Name != name {
			continue
		}
		if fn.Doc != nil && d.Line >= docStart && d.Line <= docEnd {
			return true
		}
		if d.Line == declLine-1 {
			return true
		}
	}
	return false
}

// SuppressedAt reports whether a //bc:<name> directive suppresses a
// diagnostic at pos: the directive sits on the same line (trailing
// comment) or on the line directly above.
func (p *Pass) SuppressedAt(f *ast.File, pos token.Pos, name string) bool {
	line := p.Fset.Position(pos).Line
	for _, d := range p.Directives(f) {
		if d.Name == name && (d.Line == line || d.Line == line-1) {
			return true
		}
	}
	return false
}
