package mpi

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// collective tag layout: tags at and above userTagLimit are reserved.
// Each collective instance owns a window of 8 tags ("phases").
const collSeqWindow = 1 << 20

func collTag(seq uint64, phase int32) int32 {
	return int32(userTagLimit) + int32(seq%collSeqWindow)*8 + phase
}

func (c *Comm) nextCollSeq() uint64 {
	return atomic.AddUint64(&c.collSeq, 1)
}

// relRank converts an absolute comm rank to a rank relative to root.
func relRank(rank, root, size int) int { return (rank - root + size) % size }

// absRank converts back.
func absRank(rel, root, size int) int { return (rel + root) % size }

// Barrier blocks until every process in the communicator has entered it.
// It uses the dissemination algorithm: ceil(log2 P) rounds in which process
// r signals r+2^k and waits for r-2^k.
func (c *Comm) Barrier() error {
	_, err := c.IBarrier().Wait()
	return err
}

// IBarrier is the non-blocking barrier of paper §IV-F: the returned Request
// completes once all processes have entered the barrier, while the caller
// keeps sampling. Polled to completion and followed by a blocking
// ReduceMerge, it is the one aggregation the engine runs (paper §IV-F: "we
// first perform a non-blocking barrier followed by a blocking MPI_Reduce").
// The first round's signal leaves now; each later round leaves when a
// Test or Wait finds the previous round's signal arrived. On a one-rank
// communicator it returns completed, as does IBcast.
func (c *Comm) IBarrier() *Request {
	seq := c.nextCollSeq()
	if c.Size() == 1 {
		return completedRequest(nil, nil)
	}
	b := &ibarrier{c: c, seq: seq, dist: 1}
	b.req = Request{done: make(chan struct{}), eng: c.eng, coll: b}
	b.step()
	return &b.req
}

// ibarrier is a dissemination barrier in flight: in the round at distance
// dist, the signal to rank+dist has left and recv waits for the one from
// rank-dist.
type ibarrier struct {
	req   Request
	c     *Comm
	seq   uint64
	dist  int
	phase int32
	recv  *Request
}

func (b *ibarrier) step() *Request {
	c, size := b.c, b.c.Size()
	for ; b.dist < size; b.dist *= 2 {
		from, tag := (c.rank-b.dist+size)%size, collTag(b.seq, b.phase)
		if b.recv == nil {
			if err := c.sendRaw((c.rank+b.dist)%size, tag, nil); err != nil {
				b.req.complete(nil, err)
				return nil
			}
			b.recv = c.irecvRaw(from, tag)
		}
		if !b.recv.isDone() {
			return b.recv
		}
		if err := b.recv.err; err != nil {
			b.req.complete(nil, recvErr(from, tag, err))
			return nil
		}
		b.recv = nil
		b.phase++
	}
	b.req.complete(nil, nil)
	return nil
}

// Bcast broadcasts data from root to all processes along a binomial tree and
// returns the payload on every process (root included).
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	return c.IBcast(root, data).Wait()
}

// IBcast is the non-blocking broadcast used to distribute the termination
// flag (paper Alg. 1 line 16 / Alg. 2 line 26). It runs along a binomial
// tree: a rank forwards the payload to its children when a Test or Wait
// finds it arrived from its parent (the root forwards at once).
func (c *Comm) IBcast(root int, data []byte) *Request {
	if err := c.checkRank(root); err != nil {
		return completedRequest(nil, err)
	}
	seq := c.nextCollSeq()
	buf := make([]byte, len(data))
	copy(buf, data)
	size := c.Size()
	if size == 1 {
		return completedRequest(buf, nil)
	}
	b := &ibcast{c: c, root: root, rel: relRank(c.rank, root, size), tag: collTag(seq, 0), buf: buf, mask: 1}
	b.req = Request{done: make(chan struct{}), eng: c.eng, coll: b}
	// The parent is the rank that differs in my lowest set bit; the root
	// has none, and its mask ends past the tree.
	for ; b.mask < size; b.mask <<= 1 {
		if b.rel&b.mask != 0 {
			b.parent = absRank(b.rel^b.mask, root, size)
			b.recv = c.irecvRaw(b.parent, b.tag)
			break
		}
	}
	b.step()
	return &b.req
}

// ibcast is a binomial-tree broadcast in flight: recv, unless this rank is
// the root, waits for the payload from the parent; the children sit below
// mask.
type ibcast struct {
	req          Request
	c            *Comm
	root, rel    int
	parent, mask int
	tag          int32
	buf          []byte
	recv         *Request
}

func (b *ibcast) step() *Request {
	if b.recv != nil {
		if !b.recv.isDone() {
			return b.recv
		}
		if b.recv.err != nil {
			b.req.complete(nil, recvErr(b.parent, b.tag, b.recv.err))
			return nil
		}
		b.buf = b.recv.data
	}
	// Forward to the children below the level the payload came in at.
	size := b.c.Size()
	for m := b.mask >> 1; m > 0; m >>= 1 {
		if b.rel+m < size && b.rel&m == 0 {
			if err := b.c.sendRaw(absRank(b.rel|m, b.root, size), b.tag, b.buf); err != nil {
				b.req.complete(nil, err)
				return nil
			}
		}
	}
	b.req.complete(b.buf, nil)
	return nil
}

// MergeOp combines two buffers of a variable-length reduction: it merges
// src into acc and returns the merged encoding, which may alias (and
// mutate) either input or be freshly allocated. The buffers need not have
// equal lengths — this is what lets sparse-encoded state frames
// flow through a reduction tree, with the operator free to re-encode (e.g.
// densify) as the partial aggregates grow.
type MergeOp func(acc, src []byte) ([]byte, error)

// ReduceMerge combines every process's variable-length buffer with op along
// a binomial tree; the result lands on root (other ranks receive nil). It
// is the blocking reduction of paper §IV-F's IBarrier + Reduce aggregation.
func (c *Comm) ReduceMerge(root int, data []byte, op MergeOp) ([]byte, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	acc := make([]byte, len(data))
	copy(acc, data)
	return c.reduceMergeWithSeq(root, acc, op, c.nextCollSeq())
}

// reduceMergeWithSeq implements the binomial-tree reduction. acc is owned
// by the callee; op may mutate it or substitute a fresh buffer.
func (c *Comm) reduceMergeWithSeq(root int, acc []byte, op MergeOp, seq uint64) ([]byte, error) {
	size := c.Size()
	if size == 1 {
		return acc, nil
	}
	rel := relRank(c.rank, root, size)
	tag := collTag(seq, 1)
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask != 0 {
			parent := absRank(rel^mask, root, size)
			return nil, c.sendRaw(parent, tag, acc)
		}
		if rel|mask < size {
			child := absRank(rel|mask, root, size)
			buf, err := c.recvRaw(child, tag)
			if err != nil {
				return nil, err
			}
			if acc, err = op(acc, buf); err != nil {
				return nil, fmt.Errorf("mpi: reduce merge: %w", err)
			}
		}
	}
	return acc, nil
}

// Gather collects every process's buffer at root, indexed by rank; other
// ranks receive nil.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	seq := c.nextCollSeq()
	tag := collTag(seq, 2)
	if c.rank != root {
		return nil, c.sendRaw(root, tag, data)
	}
	out := make([][]byte, c.Size())
	buf := make([]byte, len(data))
	copy(buf, data)
	out[root] = buf
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		b, err := c.recvRaw(r, tag)
		if err != nil {
			return nil, err
		}
		out[r] = b
	}
	return out, nil
}

// Split partitions the communicator: processes passing the same color form
// a new communicator, ordered by (key, parent rank). A negative color
// returns (nil, nil) for processes that opt out. Split is collective: every
// member must call it. The paper uses exactly this to form per-node local
// communicators and the global leader communicator (§IV-E).
func (c *Comm) Split(color, key int) (*Comm, error) {
	seq := atomic.AddUint64(&c.splitSeq, 1)
	// Exchange (color, key) pairs via gather+bcast on the parent comm.
	me := make([]byte, 16)
	binary.LittleEndian.PutUint64(me, uint64(int64(color)))
	binary.LittleEndian.PutUint64(me[8:], uint64(int64(key)))
	parts, err := c.Gather(0, me)
	if err != nil {
		return nil, err
	}
	var packed []byte
	if c.rank == 0 {
		packed = make([]byte, 0, 16*c.Size())
		for _, p := range parts {
			packed = append(packed, p...)
		}
	}
	packed, err = c.Bcast(0, packed)
	if err != nil {
		return nil, err
	}
	if color < 0 {
		return nil, nil
	}
	type member struct{ color, key, rank int }
	var group []member
	for r := 0; r < c.Size(); r++ {
		col := int(int64(binary.LittleEndian.Uint64(packed[16*r:])))
		k := int(int64(binary.LittleEndian.Uint64(packed[16*r+8:])))
		if col == color {
			group = append(group, member{col, k, r})
		}
	}
	// Sort by (key, rank) — insertion sort; groups are small.
	for i := 1; i < len(group); i++ {
		for j := i; j > 0 && (group[j].key < group[j-1].key ||
			(group[j].key == group[j-1].key && group[j].rank < group[j-1].rank)); j-- {
			group[j], group[j-1] = group[j-1], group[j]
		}
	}
	glob := make([]int, len(group))
	myRank := -1
	for i, m := range group {
		glob[i] = c.glob[m.rank]
		if m.rank == c.rank {
			myRank = i
		}
	}
	ctx := mix64(mix64(c.ctx+seq) ^ uint64(int64(color)+0x1234567))
	return &Comm{
		eng:  c.eng,
		ctx:  ctx,
		rank: myRank,
		glob: glob,
		gen:  c.eng.generation(),
	}, nil
}
