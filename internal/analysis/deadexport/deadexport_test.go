package deadexport_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/deadexport"
)

// TestDeadExport runs the check over one stub module: a test-only export,
// a self-reference and an unused field and constant are flagged; a
// cross-package use, interface methods (heap.Interface and the errors
// package's Unwrap), a use from the bench/ stand-in, a package imported
// only by tests and a method reached through a public alias are accepted.
func TestDeadExport(t *testing.T) {
	analysistest.Run(t, "testdata", deadexport.Analyzer,
		"repro/internal/pq", "repro/bench",
		"repro/internal/runs",
		"repro/internal/mpi", "repro/cmd/app",
		"repro/internal/simnet", "repro/internal/core",
		"repro/internal/graph", "repro/graph")
}
