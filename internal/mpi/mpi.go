// Package mpi is a from-scratch message-passing runtime providing the
// subset of MPI semantics that the paper's algorithms rely on:
//
//   - processes with ranks, grouped into communicators;
//   - tagged, ordered point-to-point messages (blocking and non-blocking);
//   - collective operations — Barrier, Bcast, the variable-length merge
//     reduction ReduceMerge, Gather — and the non-blocking IBarrier and
//     IBcast, whose progress overlaps the caller's computation (paper §IV:
//     "we can overlap communication and computation simply by using the
//     non-blocking variant"); the engine aggregates each epoch with an
//     IBarrier polled while it samples, then a blocking ReduceMerge, the
//     combination paper §IV-F found fastest;
//   - communicator splitting (Split), which the paper uses to build the
//     node-local and global communicators of its hierarchical aggregation
//     (§IV-E).
//
// Go has no MPI ecosystem (the reproduction substitutes this runtime for
// MPICH), so the package implements the machinery directly: a per-process
// matching engine pairs incoming messages with posted receives by
// (communicator context, source, tag); collectives are built from
// point-to-point messages using binomial trees (Bcast, ReduceMerge) and the
// dissemination algorithm (Barrier), the same algorithm families MPI
// implementations use.
//
// Two transports exist: an in-process transport where each "process" is a
// goroutine group (used by the in-process backends and tests — the
// analogue of MPI's shared-memory device), and a TCP transport connecting
// genuinely separate OS processes or hosts (see tcp.go).
//
// Progress. A non-blocking collective runs on an internal goroutine and
// the TCP transport reads each connection on one; they advance only when
// they get a processor. The caller's side of that contract is
// Request.Test, the one place this package (and internal/core above it)
// yields: poll with Test — when the operation is not complete it yields
// the processor once and returns false, so a loop that samples between
// polls hands its P to the collective after every sample, where a loop
// that never blocks would hold it for a scheduler quantum (10 ms) per
// message hop. Never spin on Request.Done() with a default case: that loop
// does not yield. What Test cannot do is poll the network: while no P is
// idle the Go runtime looks at the sockets only from its monitor thread, at
// most every 10 ms, so a TCP hop into a fully busy process costs
// milliseconds where an idle one takes microseconds.
//
// Like MPI with MPI_THREAD_FUNNELED (the paper's setting, §IV-F), a Comm
// may be used from multiple goroutines of one process only through the
// library's own internals (non-blocking operations run on internal
// goroutines); user code should funnel its MPI calls through one goroutine
// per process.
package mpi

import (
	"errors"
	"fmt"
)

// AnyTag and AnySource wildcards are intentionally not supported: the
// paper's algorithms use fully determined communication patterns, and
// omitting wildcards keeps matching exact.

// ErrClosed is returned by operations on a world that has been shut down.
var ErrClosed = errors.New("mpi: world closed")

// envelope is the wire unit: a message on a communicator context from a
// source (comm-relative rank) with a tag.
type envelope struct {
	ctx  uint64
	src  int32
	tag  int32
	data []byte
}

// transport moves envelopes between processes. dst is a world rank.
type transport interface {
	// send delivers env to the engine of world-rank dst. It may block for
	// flow control but must not deadlock collectives (in-process delivery
	// is eager; TCP uses per-connection writers).
	send(dst int, env envelope) error
	// close releases resources.
	close() error
}

// Comm is a communicator: an ordered group of processes with a private
// context, so that messages on different communicators never match each
// other even between the same pair of processes.
type Comm struct {
	eng  *engine
	ctx  uint64
	rank int   // this process's rank within the communicator
	glob []int // comm rank -> world rank
	// splitSeq numbers the Split calls on this communicator so every
	// member derives the same child context deterministically.
	splitSeq uint64
	// collSeq numbers collective operations so concurrent collectives on
	// one communicator use disjoint internal tag ranges.
	collSeq uint64
	// gen is the engine failure generation this communicator was built in;
	// operations fence against it so a communicator that predates a peer
	// death fails fast with ErrRankDead (see fault.go).
	gen uint64
}

// Rank returns the calling process's rank in the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of processes in the communicator.
func (c *Comm) Size() int { return len(c.glob) }

// WorldRank returns the world rank of the given comm rank.
func (c *Comm) WorldRank(r int) int { return c.glob[r] }

func (c *Comm) checkRank(r int) error {
	if r < 0 || r >= len(c.glob) {
		return fmt.Errorf("mpi: rank %d out of range [0,%d)", r, len(c.glob))
	}
	return nil
}

// userTagLimit bounds user tags; larger tags are reserved for collectives.
const userTagLimit = 1 << 24

func checkTag(tag int) error {
	if tag < 0 || tag >= userTagLimit {
		return fmt.Errorf("mpi: tag %d out of range [0,%d)", tag, userTagLimit)
	}
	return nil
}

// mix64 is a SplitMix64-style finalizer used to derive child communicator
// contexts deterministically and collision-resistantly.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
