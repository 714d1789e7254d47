// Package analysis assembles the repolint suite: the repo-specific
// analyzers that machine-enforce invariants which previously existed only
// as prose in CHANGES.md and as indirect test coverage. cmd/repolint runs
// the suite standalone or as a `go vet -vettool` (deadexport standalone
// only); TestTreeIsClean keeps the tree itself at zero diagnostics, and
// TestAPISurface holds the public packages to api/*.txt.
//
// See each analyzer package for the invariant it guards:
//
//	deadexport   — exported names of internal packages have a non-test caller
//	epochframe   — StateFrame.C is read-only outside internal/epoch
//	hotpathalloc — //bc:hotpath functions stay allocation-free
//	rankdead     — MPI errors are matched typed, transport errors handled
//	ctxleak      — no context.Background()/TODO() in library packages
//	layerimport  — cmd/examples use the public API; leaf packages stay leaves
//	mmapsafe     — unsafe/mmap confined to internal/bigio; mapped slices
//	               never feed append or become copy destinations
package analysis

import (
	"repro/internal/analysis/ctxleak"
	"repro/internal/analysis/deadexport"
	"repro/internal/analysis/epochframe"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/hotpathalloc"
	"repro/internal/analysis/layerimport"
	"repro/internal/analysis/mmapsafe"
	"repro/internal/analysis/rankdead"
)

// All returns the full repolint suite in stable order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		ctxleak.Analyzer,
		deadexport.Analyzer,
		epochframe.Analyzer,
		hotpathalloc.Analyzer,
		layerimport.Analyzer,
		mmapsafe.Analyzer,
		rankdead.Analyzer,
	}
}
