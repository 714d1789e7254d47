package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

func TestSendRecvBasic(t *testing.T) {
	err := RunLocal(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.send(1, 7, []byte("hello"))
		}
		data, err := c.recv(0, 7)
		if err != nil {
			return err
		}
		if string(data) != "hello" {
			return fmt.Errorf("got %q", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendBufferReuse(t *testing.T) {
	// Send must copy: mutating the buffer after Send must not affect the
	// delivered message.
	err := RunLocal(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			if err := c.send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 99
			return nil
		}
		data, err := c.recv(0, 0)
		if err != nil {
			return err
		}
		if data[0] != 1 {
			return fmt.Errorf("send did not copy: %v", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingPerTag(t *testing.T) {
	const N = 200
	err := RunLocal(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < N; i++ {
				if err := c.send(1, 5, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < N; i++ {
			data, err := c.recv(0, 5)
			if err != nil {
				return err
			}
			if data[0] != byte(i) {
				return fmt.Errorf("out of order: got %d want %d", data[0], i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagsDoNotCrossMatch(t *testing.T) {
	err := RunLocal(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.send(1, 1, []byte("a")); err != nil {
				return err
			}
			return c.send(1, 2, []byte("b"))
		}
		// Receive tag 2 first even though tag 1 was sent first.
		b, err := c.recv(0, 2)
		if err != nil {
			return err
		}
		a, err := c.recv(0, 1)
		if err != nil {
			return err
		}
		if string(a) != "a" || string(b) != "b" {
			return fmt.Errorf("cross-matched tags: %q %q", a, b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvBeforeSend(t *testing.T) {
	err := RunLocal(2, func(c *Comm) error {
		if c.Rank() == 1 {
			req, err := c.Irecv(0, 3)
			if err != nil {
				return err
			}
			if req.Test() {
				return fmt.Errorf("request completed before send")
			}
			data, err := req.Wait()
			if err != nil {
				return err
			}
			if string(data) != "x" {
				return fmt.Errorf("got %q", data)
			}
			return nil
		}
		time.Sleep(20 * time.Millisecond)
		return c.send(1, 3, []byte("x"))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidArgs(t *testing.T) {
	err := RunLocal(1, func(c *Comm) error {
		if err := c.send(5, 0, nil); err == nil {
			return fmt.Errorf("out-of-range rank accepted")
		}
		if err := c.send(0, -1, nil); err == nil {
			return fmt.Errorf("negative tag accepted")
		}
		if err := c.send(0, userTagLimit, nil); err == nil {
			return fmt.Errorf("reserved tag accepted")
		}
		if _, err := c.recv(9, 0); err == nil {
			return fmt.Errorf("out-of-range recv accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8, 16} {
		var entered atomic.Int32
		err := RunLocal(p, func(c *Comm) error {
			entered.Add(1)
			if err := c.Barrier(); err != nil {
				return err
			}
			if int(entered.Load()) != p {
				return fmt.Errorf("barrier released before all %d entered (%d)", p, entered.Load())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestIBarrierOverlap(t *testing.T) {
	// Rank 0 enters late; rank 1's IBarrier must not complete early, and
	// rank 1 must be able to do work while waiting.
	err := RunLocal(2, func(c *Comm) error {
		if c.Rank() == 0 {
			time.Sleep(50 * time.Millisecond)
			return c.Barrier()
		}
		req := c.IBarrier()
		work := 0
		for !req.Test() {
			work++
		}
		if work == 0 {
			return fmt.Errorf("no overlap achieved")
		}
		_, err := req.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		for root := 0; root < p; root += 2 {
			payload := []byte(fmt.Sprintf("msg-from-%d", root))
			err := RunLocal(p, func(c *Comm) error {
				var in []byte
				if c.Rank() == root {
					in = payload
				}
				out, err := c.Bcast(root, in)
				if err != nil {
					return err
				}
				if !bytes.Equal(out, payload) {
					return fmt.Errorf("rank %d got %q", c.Rank(), out)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

// sumInt64 is the MergeOp these tests reduce with: it adds src into acc,
// both little-endian int64 vectors of equal length.
func sumInt64(acc, src []byte) ([]byte, error) {
	if len(src) != len(acc) {
		return nil, fmt.Errorf("buffer length mismatch: %d vs %d", len(src), len(acc))
	}
	for i := 0; i+8 <= len(src); i += 8 {
		v := binary.LittleEndian.Uint64(acc[i:]) + binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(acc[i:], v)
	}
	return acc, nil
}

func TestReduceSumAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 9, 16} {
		for root := 0; root < p; root += 3 {
			err := RunLocal(p, func(c *Comm) error {
				vec := []int64{int64(c.Rank()), 1, int64(c.Rank() * c.Rank())}
				buf := EncodeInt64s(nil, vec)
				res, err := c.ReduceMerge(root, buf, sumInt64)
				if err != nil {
					return err
				}
				if c.Rank() != root {
					if res != nil {
						return fmt.Errorf("non-root got data")
					}
					return nil
				}
				got := make([]int64, 3)
				DecodeInt64s(got, res)
				wantSum := int64(p * (p - 1) / 2)
				var wantSq int64
				for i := 0; i < p; i++ {
					wantSq += int64(i * i)
				}
				if got[0] != wantSum || got[1] != int64(p) || got[2] != wantSq {
					return fmt.Errorf("reduce got %v", got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

// TestReduceThenBcast: a reduction to rank 0 followed by a broadcast of
// its result reaches every rank, the sequence numbers of the two
// collectives staying aligned — rank 0 folds, then broadcasts, each epoch.
func TestReduceThenBcast(t *testing.T) {
	err := RunLocal(6, func(c *Comm) error {
		buf := EncodeInt64s(nil, []int64{1})
		res, err := c.ReduceMerge(0, buf, sumInt64)
		if err != nil {
			return err
		}
		if res, err = c.Bcast(0, res); err != nil {
			return err
		}
		got := make([]int64, 1)
		DecodeInt64s(got, res)
		if got[0] != 6 {
			return fmt.Errorf("rank %d: reduce then bcast got %d", c.Rank(), got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	err := RunLocal(4, func(c *Comm) error {
		parts, err := c.Gather(2, []byte{byte(c.Rank() * 10)})
		if err != nil {
			return err
		}
		if c.Rank() != 2 {
			if parts != nil {
				return fmt.Errorf("non-root got data")
			}
			return nil
		}
		for r := 0; r < 4; r++ {
			if parts[r][0] != byte(r*10) {
				return fmt.Errorf("gather slot %d = %d", r, parts[r][0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIBcastTerminationFlagPattern(t *testing.T) {
	// The exact pattern of paper Alg. 1 lines 15-17: root broadcasts a
	// boolean while everyone overlaps with work.
	err := RunLocal(3, func(c *Comm) error {
		var req *Request
		if c.Rank() == 0 {
			req = c.IBcast(0, []byte{1})
		} else {
			req = c.IBcast(0, nil)
		}
		for !req.Test() {
		}
		data, err := req.Wait()
		if err != nil {
			return err
		}
		if len(data) != 1 || data[0] != 1 {
			return fmt.Errorf("rank %d: flag lost", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneRankNonBlockingCollectives: on a one-rank world the non-blocking
// collectives are plain copies, handed back already completed. None may
// start a goroutine — the single-process engines run Algorithm 2 on such a
// world, and a goroutine per collective per epoch is what they must not pay
// — so the goroutine count is compared across every call, while a goroutine
// started by it would still be alive.
func TestOneRankNonBlockingCollectives(t *testing.T) {
	c := NewLocalWorld(1).Comm(0)
	for i := 0; i < 1000; i++ {
		in := []byte{byte(i), byte(i >> 8), 7}
		for _, op := range []struct {
			name string
			call func() *Request
			want []byte
		}{
			{"IBarrier", c.IBarrier, nil},
			{"IBcast", func() *Request { return c.IBcast(0, in) }, in},
		} {
			before := runtime.NumGoroutine()
			req := op.call()
			// Only a rise counts: an earlier test's goroutine may exit meanwhile.
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("round %d: %s raised the goroutine count from %d to %d", i, op.name, before, n)
			}
			if !req.Test() {
				t.Fatalf("round %d: %s did not complete synchronously", i, op.name)
			}
			out, err := req.Wait()
			if err != nil {
				t.Fatalf("round %d: %s: %v", i, op.name, err)
			}
			if !bytes.Equal(out, op.want) {
				t.Fatalf("round %d: %s returned %v, want %v", i, op.name, out, op.want)
			}
		}
	}
}

func TestSplitByParity(t *testing.T) {
	err := RunLocal(6, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		if sub.glob[sub.Rank()] != c.Rank() {
			return fmt.Errorf("world rank mapping broken")
		}
		// Ranks must be ordered by key (= parent rank here).
		want := c.Rank() / 2
		if sub.Rank() != want {
			return fmt.Errorf("sub rank %d, want %d", sub.Rank(), want)
		}
		// The subcommunicator must be fully functional.
		buf := EncodeInt64s(nil, []int64{int64(c.Rank())})
		res, err := sub.ReduceMerge(0, buf, sumInt64)
		if err != nil || sub.Rank() != 0 {
			return err
		}
		got := make([]int64, 1)
		DecodeInt64s(got, res)
		wantSum := int64(0 + 2 + 4)
		if c.Rank()%2 == 1 {
			wantSum = 1 + 3 + 5
		}
		if got[0] != wantSum {
			return fmt.Errorf("split reduce got %d want %d", got[0], wantSum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitOptOut(t *testing.T) {
	err := RunLocal(4, func(c *Comm) error {
		color := 0
		if c.Rank() != 0 {
			color = -1
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if sub == nil || sub.Size() != 1 {
				return fmt.Errorf("rank 0 expected singleton comm")
			}
		} else if sub != nil {
			return fmt.Errorf("opted-out rank got a comm")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitContextIsolation(t *testing.T) {
	// Traffic on a subcommunicator must not match traffic on the parent.
	err := RunLocal(2, func(c *Comm) error {
		sub, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := sub.send(1, 9, []byte("sub")); err != nil {
				return err
			}
			return c.send(1, 9, []byte("parent"))
		}
		// Receive on parent first; must get the parent message even though
		// the sub message arrived first.
		p, err := c.recv(0, 9)
		if err != nil {
			return err
		}
		s, err := sub.recv(0, 9)
		if err != nil {
			return err
		}
		if string(p) != "parent" || string(s) != "sub" {
			return fmt.Errorf("context leak: parent=%q sub=%q", p, s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalSplitLikePaper(t *testing.T) {
	// Paper §IV-E: split world into per-node local comms, plus a global comm
	// of node leaders. 8 ranks, 2 per "node".
	const ranksPerNode = 2
	err := RunLocal(8, func(c *Comm) error {
		node := c.Rank() / ranksPerNode
		local, err := c.Split(node, c.Rank())
		if err != nil {
			return err
		}
		leaderColor := -1
		if local.Rank() == 0 {
			leaderColor = 0
		}
		global, err := c.Split(leaderColor, c.Rank())
		if err != nil {
			return err
		}
		// Local aggregation then global aggregation, as in the paper.
		buf := EncodeInt64s(nil, []int64{1})
		lres, err := local.ReduceMerge(0, buf, sumInt64)
		if err != nil {
			return err
		}
		if local.Rank() == 0 {
			gres, err := global.ReduceMerge(0, lres, sumInt64)
			if err != nil {
				return err
			}
			if global.Rank() == 0 {
				got := make([]int64, 1)
				DecodeInt64s(got, gres)
				if got[0] != 8 {
					return fmt.Errorf("hierarchical sum %d, want 8", got[0])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceRandomVectorsProperty(t *testing.T) {
	f := func(seed uint64, pRaw uint8, lenRaw uint8) bool {
		p := int(pRaw%7) + 1
		vecLen := int(lenRaw%32) + 1
		r := rng.NewRand(seed)
		inputs := make([][]int64, p)
		want := make([]int64, vecLen)
		for i := range inputs {
			inputs[i] = make([]int64, vecLen)
			for j := range inputs[i] {
				inputs[i][j] = int64(r.Intn(1000)) - 500
				want[j] += inputs[i][j]
			}
		}
		ok := true
		err := RunLocal(p, func(c *Comm) error {
			buf := EncodeInt64s(nil, inputs[c.Rank()])
			res, err := c.ReduceMerge(0, buf, sumInt64)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				got := make([]int64, vecLen)
				DecodeInt64s(got, res)
				for j := range got {
					if got[j] != want[j] {
						ok = false
					}
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCollectiveAndSampling(t *testing.T) {
	// The engine's epoch (paper §IV-F): every rank enters a non-blocking
	// barrier, keeps "sampling" (incrementing a local counter) until it
	// completes, runs the blocking reduction, then waits on the termination
	// broadcast, repeatedly.
	const rounds = 20
	err := RunLocal(4, func(c *Comm) error {
		total := int64(0)
		for round := 0; round < rounds; round++ {
			req := c.IBarrier()
			for !req.Test() {
				total++ // overlapped work
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			buf := EncodeInt64s(nil, []int64{1, int64(round)})
			res, err := c.ReduceMerge(0, buf, sumInt64)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				got := make([]int64, 2)
				DecodeInt64s(got, res)
				if got[0] != 4 || got[1] != int64(4*round) {
					return fmt.Errorf("round %d: got %v", round, got)
				}
			}
			var breq *Request
			if c.Rank() == 0 {
				breq = c.IBcast(0, []byte{1})
			} else {
				breq = c.IBcast(0, nil)
			}
			if _, err := breq.Wait(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	f := func(vs []int64) bool {
		buf := EncodeInt64s(nil, vs)
		got := make([]int64, len(vs))
		DecodeInt64s(got, buf)
		for i := range vs {
			if got[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReduceLocal8x4096(b *testing.B) {
	vec := make([]int64, 4096)
	for i := range vec {
		vec[i] = int64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := RunLocal(8, func(c *Comm) error {
			buf := EncodeInt64s(nil, vec)
			_, err := c.ReduceMerge(0, buf, sumInt64)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBarrierLocal16(b *testing.B) {
	w := NewLocalWorld(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan error, 16)
		for r := 0; r < 16; r++ {
			go func(r int) {
				done <- w.Comm(r).Barrier()
			}(r)
		}
		for r := 0; r < 16; r++ {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	}
}
