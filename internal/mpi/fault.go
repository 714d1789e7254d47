package mpi

import (
	"errors"
	"fmt"
	"sort"
)

// Fault model. The runtime distinguishes two failure scopes:
//
//   - engine failure (engine.fail): this process is done — every pending
//     and future operation errors. Used for local shutdown and for the
//     victim of an injected kill.
//   - peer death (engine.notifyDeath): a remote process is gone, this one
//     keeps running. The death is recorded per world rank, the engine's
//     failure generation is bumped, and every pending operation is revoked
//     with ErrRankDead so no survivor can block on a collective that will
//     never complete. Communicators carry the generation they were built
//     in; operations on a stale communicator fail fast instead of
//     re-entering a broken communication pattern.
//
// Recovery traffic (the world-reconfiguration handshake in internal/core)
// flows on a reserved context, addressed by world rank, and bypasses the
// generation fence — it must work exactly when every normal communicator
// has been revoked. After the handshake, survivors build a shrunken
// communicator with Shrink and resume.

// ErrRankDead reports that a peer process has been declared dead: its
// connection reset, its heartbeats stopped for longer than the liveness
// timeout, or a fault injector killed it. Operations that can no longer
// complete fail with this error instead of hanging.
type ErrRankDead struct {
	// Rank is the world rank of the dead process.
	Rank int
	// Cause is what the detector observed (may be nil).
	Cause error
}

func (e ErrRankDead) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("mpi: rank %d dead: %v", e.Rank, e.Cause)
	}
	return fmt.Sprintf("mpi: rank %d dead", e.Rank)
}

func (e ErrRankDead) Unwrap() error { return e.Cause }

// AsRankDead reports whether err (anywhere in its chain) is a rank-death
// failure, and if so which rank died.
func AsRankDead(err error) (ErrRankDead, bool) {
	var rd ErrRankDead
	ok := errors.As(err, &rd)
	return rd, ok
}

// ErrKilled is the cause recorded by World.Kill for the victim's own
// operations — the in-process analogue of the process being gone.
var ErrKilled = errors.New("mpi: rank killed by fault injection")

// errAborted is the cause recorded by tcpTransport.abort for the aborting
// process's own operations.
var errAborted = errors.New("mpi: world aborted")

// recoveryCtx is the reserved communicator context of the recovery
// channel. Messages on it are addressed by world rank and bypass the
// generation fence.
const recoveryCtx = ^uint64(0)

// DeadRanks returns the world ranks this process currently believes dead,
// in ascending order.
func (c *Comm) DeadRanks() []int {
	e := c.eng
	e.mu.Lock()
	ranks := make([]int, 0, len(e.dead))
	for r := range e.dead {
		ranks = append(ranks, r)
	}
	e.mu.Unlock()
	sort.Ints(ranks)
	return ranks
}

// SelfWorldRank returns the calling process's world rank, which is stable
// across shrinks (unlike Rank, which is relative to the communicator).
func (c *Comm) SelfWorldRank() int { return c.eng.worldRank }

// RecoverySend sends data to world rank dstWorld on the recovery channel.
// It bypasses the generation fence; errors only reflect transport-level
// failure (the peer may well be dead — callers of the recovery protocol
// treat send errors as exactly that).
func (c *Comm) RecoverySend(dstWorld, tag int, data []byte) error {
	buf := make([]byte, len(data))
	copy(buf, data)
	return c.eng.tr.send(dstWorld, envelope{
		ctx:  recoveryCtx,
		src:  int32(c.eng.worldRank),
		tag:  int32(tag),
		data: buf,
	})
}

// RecoveryRecv posts a receive on the recovery channel for a message from
// world rank srcWorld. The request fails with ErrRankDead{srcWorld} if
// that rank is, or becomes, dead — receives from other sources survive
// death notifications, which is what lets the handshake make progress
// while everything else is being revoked.
func (c *Comm) RecoveryRecv(srcWorld, tag int) *Request {
	req := c.eng.newRequest()
	c.eng.postRecovery(srcWorld, int32(tag), req)
	return req
}

// Shrink builds the post-recovery communicator over the surviving world
// ranks (strictly ascending; must contain the caller). round salts the
// context so successive recovery rounds never cross-match. Shrink is
// deterministic and communication-free: every survivor derives the same
// communicator from the same (survivors, round) pair, and the result
// adopts the engine's current failure generation so it is live until the
// next death.
func (c *Comm) Shrink(survivors []int, round uint64) (*Comm, error) {
	me := -1
	for i, r := range survivors {
		if i > 0 && r <= survivors[i-1] {
			return nil, fmt.Errorf("mpi: shrink: survivor set not strictly ascending")
		}
		if r == c.eng.worldRank {
			me = i
		}
	}
	if me < 0 {
		return nil, fmt.Errorf("mpi: shrink: world rank %d not in survivor set", c.eng.worldRank)
	}
	glob := make([]int, len(survivors))
	copy(glob, survivors)
	return &Comm{
		eng:  c.eng,
		ctx:  mix64(0xFA170C0DE ^ mix64(round+1)),
		rank: me,
		glob: glob,
		gen:  c.eng.generation(),
	}, nil
}
