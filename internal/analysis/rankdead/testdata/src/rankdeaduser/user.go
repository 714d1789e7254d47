// Package rankdeaduser imports repro/internal/mpi directly, which puts it
// in scope; each seeded anti-pattern must be flagged.
package rankdeaduser

import (
	"errors"
	"strings"

	"repro/internal/mpi"
)

func bad(c *mpi.Comm, err, other error) {
	if err == mpi.ErrRankDead { // want `comparing errors with == misses wrapped transport errors`
		return
	}
	if err != other { // want `comparing errors with != misses wrapped transport errors`
		return
	}
	if err.Error() == "mpi: rank dead" { // want `comparing err\.Error\(\) text`
		return
	}
	if "mpi: rank dead" != err.Error() { // want `comparing err\.Error\(\) text`
		return
	}
	if strings.Contains(err.Error(), "rank dead") { // want `string-matching an error with strings\.Contains`
		return
	}
	if strings.HasPrefix(err.Error(), "mpi:") { // want `string-matching an error with strings\.HasPrefix`
		return
	}
	c.Send(1, 1, nil)          // want `dropped error from Comm\.Send: a transport op's error carries rank-death`
	c.Barrier()                // want `dropped error from Comm\.Barrier`
	c.ReduceMerge(0, nil, nil) // want `dropped error from Comm\.ReduceMerge`
}

func clean(c *mpi.Comm, err error) error {
	if err == nil { // comparing to nil is fine
		return nil
	}
	if errors.Is(err, mpi.ErrRankDead) {
		return err
	}
	if rd, ok := mpi.AsRankDead(err); ok {
		_ = rd.Rank
	}
	_ = c.Send(1, 1, nil) // explicit opt-out is the visible discard
	if err := c.Barrier(); err != nil {
		return err
	}
	if _, err := c.Recv(0, 1); err != nil {
		return err
	}
	if strings.Contains("not an error", "x") { // strings.* on non-errors is fine
		return nil
	}
	return nil
}

// wrapErr's Is method is the errors.Is protocol: its == against the
// sentinel is exempt even in an importing package.
type wrapErr struct{ inner error }

func (w *wrapErr) Error() string        { return "wrapped" }
func (w *wrapErr) Is(target error) bool { return target == mpi.ErrRankDead }
