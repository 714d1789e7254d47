// Package simnet is imported by _test.go files only, so its own exports
// are test support and exempt; its calls into other packages still count.
package simnet

import "repro/internal/mpi"

// RunFaulty is called by tests only.
func RunFaulty(n int) error {
	w, err := mpi.Connect(n)
	if err != nil {
		return err
	}
	w.Kill(n - 1)
	return nil
}
