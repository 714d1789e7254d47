package framework

import (
	"fmt"
	"go/token"
	"sort"
)

// A Finding is one diagnostic resolved to a file position, as produced by
// Analyze and printed by cmd/repolint.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Analyze runs every per-unit analyzer over every unit that is not a
// Caller, and every module-wide analyzer once over all units, and returns
// the merged findings sorted by position. Analyzer errors abort the run: a
// broken analyzer must never pass silently as "no findings".
func Analyze(units []*Unit, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	seen := make(map[string]bool)
	report := func(a *Analyzer, fset *token.FileSet) func(Diagnostic) {
		return func(d Diagnostic) {
			f := Finding{Analyzer: a.Name, Pos: fset.Position(d.Pos), Message: d.Message}
			if key := f.String(); !seen[key] {
				seen[key] = true
				findings = append(findings, f)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil || len(units) == 0 {
			continue
		}
		pass := &ModulePass{Analyzer: a, Fset: units[0].Fset, Units: units}
		pass.Report = report(a, pass.Fset)
		if err := a.RunModule(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	for _, u := range units {
		if u.Caller {
			continue
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      u.Fset,
				Files:     u.Files,
				Pkg:       u.Pkg,
				TypesInfo: u.Info,
			}
			pass.Report = report(a, u.Fset)
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, u.ID, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
