// Package core imports the test-support package from its tests only.
package core

// Run is called by repro/graph.
func Run() int { return 1 }
