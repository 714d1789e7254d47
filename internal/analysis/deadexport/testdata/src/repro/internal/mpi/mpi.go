// Package mpi has a cross-package use, an error type whose Unwrap serves
// package errors, and a method only a test-support package calls.
package mpi

import "fmt"

// ErrRankDead wraps the cause of a rank's death.
type ErrRankDead struct {
	Rank  int
	Cause error
}

func (e ErrRankDead) Error() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Cause) }

// Unwrap has no caller in the module: errors.Is and errors.As reach it.
func (e ErrRankDead) Unwrap() error { return e.Cause }

// World is an in-process world.
type World struct{ dead []bool }

// Connect is called by repro/cmd/app.
func Connect(n int) (*World, error) {
	if n < 1 {
		return nil, ErrRankDead{Rank: n}
	}
	return &World{dead: make([]bool, n)}, nil
}

// Kill is called by the test-support package repro/internal/simnet only.
func (w *World) Kill(r int) { w.dead[r] = true }
