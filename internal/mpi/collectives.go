package mpi

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Op combines a received buffer into an accumulator during reductions. The
// buffers are guaranteed to have equal length; dst is mutated in place.
type Op func(dst, src []byte)

// SumInt64 interprets the buffers as little-endian int64 vectors and adds
// src into dst elementwise. It is the reduction operator for the sampling
// state frames (tau and the c-tilde vector are int64 counters).
func SumInt64(dst, src []byte) {
	for i := 0; i+8 <= len(src); i += 8 {
		v := binary.LittleEndian.Uint64(dst[i:]) + binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], v)
	}
}

// MaxInt64 takes the elementwise maximum; used by tools that aggregate
// per-process statistics.
func MaxInt64(dst, src []byte) {
	for i := 0; i+8 <= len(src); i += 8 {
		a := int64(binary.LittleEndian.Uint64(dst[i:]))
		b := int64(binary.LittleEndian.Uint64(src[i:]))
		if b > a {
			binary.LittleEndian.PutUint64(dst[i:], uint64(b))
		}
	}
}

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
	_, err := c.barrierWithSeq(c.nextCollSeq())
	return err
}

// IBarrier is the non-blocking barrier of paper §IV-F: the returned Request
// completes once all processes have entered the barrier, while the caller
// keeps sampling. Combined with a blocking Reduce it forms the paper's
// preferred aggregation strategy. On a one-rank communicator it returns
// completed, as do IBcast and IReduceMerge: no goroutine is started.
func (c *Comm) IBarrier() *Request {
	seq := c.nextCollSeq()
	if c.Size() == 1 {
		return completedRequest(nil, nil)
	}
	req := newRequest()
	go func() {
		_, err := c.barrierWithSeq(seq)
		req.complete(nil, err)
	}()
	return req
}

func (c *Comm) barrierWithSeq(seq uint64) ([]byte, error) {
	size := c.Size()
	if size == 1 {
		return nil, nil
	}
	var phase int32
	for dist := 1; dist < size; dist *= 2 {
		to := (c.rank + dist) % size
		from := (c.rank - dist + size) % size
		if err := c.sendRaw(to, collTag(seq, phase), nil); err != nil {
			return nil, err
		}
		if _, err := c.recvRaw(from, collTag(seq, phase)); err != nil {
			return nil, err
		}
		phase++
	}
	return nil, nil
}

// Bcast broadcasts data from root to all processes along a binomial tree and
// returns the payload on every process (root included).
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	return c.bcastWithSeq(root, data, c.nextCollSeq())
}

// IBcast is the non-blocking broadcast used to distribute the termination
// flag (paper Alg. 1 line 16 / Alg. 2 line 26).
func (c *Comm) IBcast(root int, data []byte) *Request {
	if err := c.checkRank(root); err != nil {
		return completedRequest(nil, err)
	}
	seq := c.nextCollSeq()
	buf := make([]byte, len(data))
	copy(buf, data)
	if c.Size() == 1 {
		return completedRequest(buf, nil)
	}
	req := newRequest()
	go func() {
		res, err := c.bcastWithSeq(root, buf, seq)
		req.complete(res, err)
	}()
	return req
}

func (c *Comm) bcastWithSeq(root int, data []byte, seq uint64) ([]byte, error) {
	size := c.Size()
	if size == 1 {
		return data, nil
	}
	rel := relRank(c.rank, root, size)
	tag := collTag(seq, 0)
	// Receive from parent (the rank that differs in my lowest set bit).
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			parent := absRank(rel^mask, root, size)
			buf, err := c.recvRaw(parent, tag)
			if err != nil {
				return nil, err
			}
			data = buf
			break
		}
		mask <<= 1
	}
	// Forward to children below the level I received at.
	mask >>= 1
	for mask > 0 {
		if rel+mask < size && rel&mask == 0 && rel < rel+mask {
			child := absRank(rel|mask, root, size)
			if err := c.sendRaw(child, tag, data); err != nil {
				return nil, err
			}
		}
		mask >>= 1
	}
	return data, nil
}

// mergeOp adapts a fixed-length Op to the variable-length MergeOp
// contract, enforcing the equal-length requirement.
func (op Op) mergeOp() MergeOp {
	return func(acc, src []byte) ([]byte, error) {
		if len(src) != len(acc) {
			return nil, fmt.Errorf("buffer length mismatch: %d vs %d", len(src), len(acc))
		}
		op(acc, src)
		return acc, nil
	}
}

// Reduce combines every process's data with op along a binomial tree; the
// result lands on root (other ranks receive nil). All buffers must have the
// same length.
func (c *Comm) Reduce(root int, data []byte, op Op) ([]byte, error) {
	return c.ReduceMerge(root, data, op.mergeOp())
}

// IReduce is the non-blocking reduction of paper Alg. 1 line 10 / Alg. 2
// line 20. The input is snapshotted synchronously, so the caller may keep
// mutating its buffer immediately (the paper's algorithms snapshot
// explicitly anyway; copying here makes misuse harmless).
func (c *Comm) IReduce(root int, data []byte, op Op) *Request {
	return c.IReduceMerge(root, data, op.mergeOp())
}

// MergeOp combines two buffers of a variable-length reduction: it merges
// src into acc and returns the merged encoding, which may alias (and
// mutate) either input or be freshly allocated. Unlike Op, the buffers need
// not have equal lengths — this is what lets sparse-encoded state frames
// flow through a reduction tree, with the operator free to re-encode (e.g.
// densify) as the partial aggregates grow.
type MergeOp func(acc, src []byte) ([]byte, error)

// ReduceMerge combines every process's variable-length buffer with op along
// a binomial tree; the result lands on root (other ranks receive nil).
// Reduce/IReduce are thin equal-length adapters over this pair.
func (c *Comm) ReduceMerge(root int, data []byte, op MergeOp) ([]byte, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	acc := make([]byte, len(data))
	copy(acc, data)
	return c.reduceMergeWithSeq(root, acc, op, c.nextCollSeq())
}

// IReduceMerge is the non-blocking ReduceMerge. The input is snapshotted
// synchronously, so the caller may keep reusing its buffer immediately.
func (c *Comm) IReduceMerge(root int, data []byte, op MergeOp) *Request {
	if err := c.checkRank(root); err != nil {
		return completedRequest(nil, err)
	}
	seq := c.nextCollSeq()
	acc := make([]byte, len(data))
	copy(acc, data)
	if c.Size() == 1 {
		return completedRequest(acc, nil)
	}
	req := newRequest()
	go func() {
		res, err := c.reduceMergeWithSeq(root, acc, op, seq)
		req.complete(res, err)
	}()
	return req
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

// Allreduce reduces to rank 0 and broadcasts the result to everyone. Both
// halves are ordinary collectives, so the sequence numbers stay aligned
// across ranks.
func (c *Comm) Allreduce(data []byte, op Op) ([]byte, error) {
	res, err := c.Reduce(0, data, op)
	if err != nil {
		return nil, err
	}
	return c.Bcast(0, res)
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

// Dup returns a communicator with the same membership but a fresh context,
// so traffic on the two never interferes. Dup is collective (all members
// must call it in matching order) but requires no communication.
func (c *Comm) Dup() *Comm {
	seq := atomic.AddUint64(&c.splitSeq, 1)
	ctx := mix64(mix64(c.ctx+seq) ^ 0xd0d0d0d0)
	glob := make([]int, len(c.glob))
	copy(glob, c.glob)
	return &Comm{eng: c.eng, ctx: ctx, rank: c.rank, glob: glob, gen: c.eng.generation()}
}
