// Package mpi stubs the real transport at its real import path. It is
// itself in scope (path prefix), so its own implementation must come out
// clean — including the Is method, which is the errors.Is protocol
// exemption exercised in-scope.
package mpi

import "errors"

// ErrRankDead is the typed rank-death sentinel.
var ErrRankDead = errors.New("mpi: rank dead")

// RankDeadError carries the dead rank.
type RankDeadError struct{ Rank int }

func (e *RankDeadError) Error() string { return "mpi: rank dead" }

// Is makes errors.Is(err, ErrRankDead) work; the == against the sentinel
// here is the sanctioned protocol implementation, not a violation.
func (e *RankDeadError) Is(target error) bool { return target == ErrRankDead }

// AsRankDead extracts a RankDeadError from a wrapped chain.
func AsRankDead(err error) (*RankDeadError, bool) {
	var rd *RankDeadError
	if errors.As(err, &rd) {
		return rd, true
	}
	return nil, false
}

// MergeOp is the reduction operator ReduceMerge takes.
type MergeOp func(acc, src []byte) ([]byte, error)

// Comm mirrors the transport-op surface the analyzer knows.
type Comm struct{}

func (c *Comm) Send(dst, tag int, b []byte) error                          { return nil }
func (c *Comm) Recv(src, tag int) ([]byte, error)                          { return nil, nil }
func (c *Comm) ReduceMerge(root int, b []byte, op MergeOp) ([]byte, error) { return nil, nil }
func (c *Comm) Barrier() error                                             { return nil }
