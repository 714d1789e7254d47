package mpi

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// freeAddrs reserves n distinct loopback ports and returns them as
// host:port strings. The listeners are closed before returning, so a rare
// race with other processes is possible but harmless in CI-scale tests.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// runTCP runs fn as p ranks connected over loopback TCP, all within this
// test process (each rank gets its own transport and engine, so the full
// wire path is exercised).
func runTCP(t *testing.T, p int, fn func(c *Comm) error) {
	t.Helper()
	addrs := freeAddrs(t, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comm, closer, err := ConnectTCP(r, addrs, 10*time.Second)
			if err != nil {
				errs[r] = fmt.Errorf("connect: %w", err)
				return
			}
			errs[r] = fn(comm)
			// Synchronize before teardown so no rank closes while another
			// still expects traffic.
			if errs[r] == nil {
				errs[r] = comm.Barrier()
			}
			closer.Close()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestTCPSendRecv(t *testing.T) {
	runTCP(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 4, []byte("over the wire"))
		}
		data, err := c.Recv(0, 4)
		if err != nil {
			return err
		}
		if string(data) != "over the wire" {
			return fmt.Errorf("got %q", data)
		}
		return nil
	})
}

func TestTCPLargeMessage(t *testing.T) {
	const size = 4 << 20 // 4 MiB, forces multiple TCP segments
	runTCP(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := make([]byte, size)
			for i := range buf {
				buf[i] = byte(i * 7)
			}
			return c.Send(1, 0, buf)
		}
		data, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if len(data) != size {
			return fmt.Errorf("got %d bytes", len(data))
		}
		for i := 0; i < size; i += 4097 {
			if data[i] != byte(i*7) {
				return fmt.Errorf("corruption at %d", i)
			}
		}
		return nil
	})
}

// TestReadPayloadChunked: payloads below, at and past the read chunk come
// back whole, and a stream that ends short is an error.
func TestReadPayloadChunked(t *testing.T) {
	for _, n := range []int{1, readChunk - 1, readChunk, readChunk + 1, 3*readChunk + 5} {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i * 13)
		}
		got, err := readPayload(bytes.NewReader(src), n)
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("n=%d: err %v, payload intact %v", n, err, bytes.Equal(got, src))
		}
		if _, err := readPayload(bytes.NewReader(src[:n-1]), n); err == nil {
			t.Fatalf("n=%d: a payload one byte short was accepted", n)
		}
	}
}

func TestTCPCollectives(t *testing.T) {
	runTCP(t, 4, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		buf := EncodeInt64s(nil, []int64{int64(c.Rank() + 1)})
		res, err := c.ReduceMerge(1, buf, sumInt64)
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			got := make([]int64, 1)
			DecodeInt64s(got, res)
			if got[0] != 10 {
				return fmt.Errorf("reduce got %d", got[0])
			}
		}
		out, err := c.Bcast(2, []byte{byte(42 + c.Rank())})
		if err != nil {
			return err
		}
		if out[0] != 44 {
			return fmt.Errorf("bcast got %d", out[0])
		}
		return nil
	})
}

func TestTCPSplitAndHierarchy(t *testing.T) {
	runTCP(t, 4, func(c *Comm) error {
		local, err := c.Split(c.Rank()/2, c.Rank())
		if err != nil {
			return err
		}
		buf := EncodeInt64s(nil, []int64{1})
		res, err := local.ReduceMerge(0, buf, sumInt64)
		if err != nil || local.Rank() != 0 {
			return err
		}
		got := make([]int64, 1)
		DecodeInt64s(got, res)
		if got[0] != 2 {
			return fmt.Errorf("local reduce got %d", got[0])
		}
		return nil
	})
}

// TestTCPBarrierOverlapThenReduce runs the engine's aggregation over real
// sockets: poll a non-blocking barrier while working, then reduce.
func TestTCPBarrierOverlapThenReduce(t *testing.T) {
	runTCP(t, 3, func(c *Comm) error {
		for round := 0; round < 5; round++ {
			req := c.IBarrier()
			spins := 0
			for !req.Test() {
				spins++
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			buf := EncodeInt64s(nil, []int64{int64(c.Rank()), 1})
			res, err := c.ReduceMerge(0, buf, sumInt64)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				got := make([]int64, 2)
				DecodeInt64s(got, res)
				if got[0] != 3 || got[1] != 3 {
					return fmt.Errorf("round %d got %v", round, got)
				}
			}
		}
		return nil
	})
}

func TestTCPConnectBadRank(t *testing.T) {
	if _, _, err := ConnectTCP(5, []string{"127.0.0.1:1", "127.0.0.1:2"}, time.Second); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

// heldAddr returns a loopback address that refuses connections and that no
// other process can take while the test runs: the test keeps it bound as the
// local end of a connection to a listener of its own, so nothing ever
// listens on it. (A port from freeAddrs is released, and a test of another
// package running in parallel may be listening on it by the time it is
// dialled.)
func heldAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	d := net.Dialer{LocalAddr: &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)}}
	conn, err := d.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn.LocalAddr().String()
}

func TestTCPConnectTimeout(t *testing.T) {
	// Only rank 1 connects; it must time out dialing the absent rank 0.
	// Nobody dials rank 1, so it listens on whatever port is free.
	addrs := []string{heldAddr(t), "127.0.0.1:0"}
	if ln, err := net.Listen("tcp", addrs[0]); err == nil {
		ln.Close()
		t.Fatalf("rank 0's address %s is free to listen on, so not held", addrs[0])
	}
	start := time.Now()
	_, _, err := ConnectTCP(1, addrs, 300*time.Millisecond)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if waited := time.Since(start); waited < 300*time.Millisecond {
		t.Fatalf("gave up after %v (%v), want the full 300ms of redialling", waited, err)
	}
}

func TestDialBackoff(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		attempt    int
		left, want time.Duration
	}{
		{0, time.Second, 1 * ms},
		{1, time.Second, 2 * ms},
		{2, time.Second, 4 * ms},
		{3, time.Second, 8 * ms},
		{4, time.Second, 16 * ms},
		{5, time.Second, 32 * ms},
		{6, time.Second, 50 * ms},
		{7, time.Second, 50 * ms},
		{1000, time.Second, 50 * ms}, // no shift overflow on a long wait
		{0, 300 * time.Microsecond, 300 * time.Microsecond},
		{5, 10 * ms, 10 * ms},
		{40, 7 * ms, 7 * ms},
	} {
		if got := dialBackoff(tc.attempt, tc.left); got != tc.want {
			t.Errorf("dialBackoff(%d, %v) = %v, want %v", tc.attempt, tc.left, got, tc.want)
		}
	}
}

// TestTCPSendAllocatesNothing: a frame is assembled in the connection's
// scratch and leaves in one vectored write.
func TestTCPSendAllocatesNothing(t *testing.T) {
	runTCP(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			return nil // its readLoop drains the frames; untagged ones are buffered
		}
		tt := c.eng.tr.(*tcpTransport)
		env := envelope{ctx: 99, tag: 7, data: make([]byte, 512)}
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			if e := tt.send(1, env); e != nil {
				err = e
			}
		})
		if err == nil && allocs != 0 {
			err = fmt.Errorf("send allocates %v times per frame", allocs)
		}
		return err
	})
}
