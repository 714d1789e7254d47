package mpi

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// shortLiveness makes failure detection fast enough for tests without
// tripping on scheduler noise.
func shortLiveness() TCPOptions {
	return TCPOptions{
		DialTimeout:       2 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond,
		LivenessTimeout:   500 * time.Millisecond,
	}
}

// helloAsRank1 is a hand-driven rank 1 of a two-rank world: it dials rank
// 0 at addr until the listener is up or timeout passes, and says hello.
// It reports the error and returns nil if it never connects.
func helloAsRank1(t *testing.T, addr string, timeout time.Duration) net.Conn {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			var hello [4]byte
			binary.LittleEndian.PutUint32(hello[:], 1)
			conn.Write(hello[:])
			return conn
		}
		if time.Now().After(deadline) {
			t.Error(err)
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPSilentPeerDetected is the regression for the latent hang this PR
// fixes: before per-connection read deadlines and heartbeats, a peer that
// completed the mesh handshake and then went silent (a wedged process, a
// dropped link with no RST) left every blocking receive waiting forever.
// Now the receive must fail with ErrRankDead within the detection window.
func TestTCPSilentPeerDetected(t *testing.T) {
	addrs := freeAddrs(t, 2)
	opts := shortLiveness()

	// The "peer": dials rank 0, says hello as rank 1, then never sends
	// another byte — no heartbeats, no goodbye, connection held open.
	silent := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if conn := helloAsRank1(t, addrs[0], opts.DialTimeout); conn != nil {
			<-silent
			conn.Close()
		}
	}()

	comm, world, err := ConnectTCPOpts(0, addrs, opts)
	if err != nil {
		close(silent)
		t.Fatal(err)
	}
	defer world.tt.abort()

	start := time.Now()
	_, rerr := comm.recv(1, 7)
	detect := time.Since(start)
	if rerr == nil {
		t.Fatal("receive from a silent peer succeeded")
	}
	rd, ok := AsRankDead(rerr)
	if !ok || rd.Rank != 1 {
		t.Fatalf("want ErrRankDead{1}, got %v", rerr)
	}
	// First-frame detection tolerates mesh-formation skew, so the window is
	// DialTimeout + LivenessTimeout; anything near-unbounded is the old hang.
	if limit := opts.DialTimeout + opts.LivenessTimeout + 2*time.Second; detect > limit {
		t.Fatalf("detection took %v, want < %v", detect, limit)
	}
	close(silent)
	wg.Wait()
}

// TestTCPOversizedFrameHeaderBounded: a frame's length comes off the wire
// unchecked, so a peer past the unauthenticated hello that claims a 4 GiB
// payload and then drops must cost the rank a death notice and about one
// read chunk of memory, not a 4 GiB allocation.
func TestTCPOversizedFrameHeaderBounded(t *testing.T) {
	addrs := freeAddrs(t, 2)
	opts := shortLiveness()

	// The "peer": says hello as rank 1, then, once told, sends a header
	// claiming 0xFFFFFFFF payload bytes and a few of them, and hangs up.
	send := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn := helloAsRank1(t, addrs[0], opts.DialTimeout)
		if conn == nil {
			return
		}
		defer conn.Close()
		<-send
		frame := make([]byte, tcpFrameHeader+100)
		binary.LittleEndian.PutUint32(frame[8:], 1)
		binary.LittleEndian.PutUint32(frame[12:], 7)
		binary.LittleEndian.PutUint32(frame[16:], 0xFFFFFFFF)
		conn.Write(frame)
	}()

	comm, world, err := ConnectTCPOpts(0, addrs, opts)
	if err != nil {
		close(send)
		wg.Wait()
		t.Fatal(err)
	}
	defer world.tt.abort()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	close(send)
	_, rerr := comm.recv(1, 7)
	runtime.ReadMemStats(&after)
	wg.Wait()
	if rd, ok := AsRankDead(rerr); !ok || rd.Rank != 1 {
		t.Fatalf("want ErrRankDead{1} from the peer that dropped mid-frame, got %v", rerr)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("a 4 GiB frame header from a peer that sent 100 bytes allocated %d MiB", grew>>20)
	}
}

// TestTCPAbortDuringReduce pins the liveness-timeout-concurrent-with-
// epoch-reduce interleaving under -race: one rank hard-aborts while the
// others are mid-collective. Survivors must observe ErrRankDead — not a
// hang, not a torn frame.
func TestTCPAbortDuringReduce(t *testing.T) {
	addrs := freeAddrs(t, 3)
	opts := shortLiveness()
	merge := func(acc, src []byte) ([]byte, error) {
		for i := range src {
			if i < len(acc) {
				acc[i] += src[i]
			} else {
				acc = append(acc, src[i])
			}
		}
		return acc, nil
	}

	errs := make([]error, 3)
	// Survivors must not tear down their world the moment they observe the
	// death: the first detector aborting would reset its connections and
	// make the slower survivor blame *it* instead of rank 2. Each survivor
	// signals detection and holds its world open until the other has
	// detected too.
	detected := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comm, world, err := ConnectTCPOpts(r, addrs, opts)
			if err != nil {
				errs[r] = err
				return
			}
			if r == 2 {
				// A couple of healthy rounds, then die mid-mesh.
				for i := 0; i < 2; i++ {
					if _, err := comm.ReduceMerge(0, []byte{1, 2, 3}, merge); err != nil {
						errs[r] = err
						return
					}
				}
				world.tt.abort()
				errs[r] = ErrKilled
				return
			}
			defer world.tt.abort()
			for {
				if _, err := comm.ReduceMerge(0, []byte{1, 2, 3}, merge); err != nil {
					errs[r] = err
					close(detected[r])
					<-detected[1-r]
					return
				}
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("reduce against an aborted rank hangs")
	}
	for r := 0; r < 2; r++ {
		if rd, ok := AsRankDead(errs[r]); !ok || rd.Rank != 2 {
			t.Fatalf("rank %d: want ErrRankDead{2}, got %v", r, errs[r])
		}
	}
}

// TestTCPGracefulCloseStaysClean guards the other side of the liveness
// coin: a *graceful* close must never be mistaken for a death. A two-rank
// world runs a collective and closes; no error may surface even though the
// liveness machinery is armed with aggressive timeouts.
func TestTCPGracefulCloseStaysClean(t *testing.T) {
	addrs := freeAddrs(t, 2)
	opts := shortLiveness()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comm, world, err := ConnectTCPOpts(r, addrs, opts)
			if err != nil {
				errs[r] = err
				return
			}
			if err := comm.Barrier(); err != nil {
				errs[r] = err
				world.tt.abort()
				return
			}
			// Sit past several heartbeat intervals to prove the idle mesh
			// stays alive, then part ways cleanly.
			time.Sleep(4 * opts.HeartbeatInterval)
			if err := comm.Barrier(); err != nil {
				errs[r] = err
				world.tt.abort()
				return
			}
			errs[r] = world.Close()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestTCPCloseStopsDepartureTimer: the timer armed when a peer says goodbye
// references the transport and its engine, so left running it keeps a
// cleanly finished world reachable for a liveness window after Close.
func TestTCPCloseStopsDepartureTimer(t *testing.T) {
	addrs := freeAddrs(t, 2)
	worlds := make([]*TCPWorld, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range worlds {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, worlds[r], errs[r] = ConnectTCP(r, addrs, 10*time.Second)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// Rank 0 leaves first; rank 1 closes only after it has seen the goodbye,
	// so its departure timer is armed by then.
	closed0 := make(chan struct{})
	go func() {
		worlds[0].Close()
		close(closed0)
	}()
	tt := worlds[1].tt
	<-tt.conns[0].sawBye
	worlds[1].Close()
	<-closed0
	tt.mu.Lock()
	timer := tt.conns[0].departed
	tt.mu.Unlock()
	if timer == nil {
		t.Fatal("no departure timer was armed at the peer's goodbye")
	}
	if timer.Stop() {
		t.Fatal("departure timer still running after Close")
	}
}

// TestTCPFailureInjection verifies the fail-stop model: when a connection
// dies without the goodbye handshake, blocked receivers error out rather
// than hang.
func TestTCPFailureInjection(t *testing.T) {
	addrs := freeAddrs(t, 2)
	type result struct {
		err error
	}
	done := make(chan result, 2)
	go func() {
		comm, closer, err := ConnectTCP(0, addrs, 5*time.Second)
		if err != nil {
			done <- result{err}
			return
		}
		_ = comm
		// Simulate a crash: slam the transport shut without the goodbye by
		// closing the raw connections via the closer after marking... we
		// cannot skip the goodbye through the public API, so emulate a
		// crash by exiting without closing; the peer's Recv must then time
		// out at the test level — instead, close abruptly the whole
		// process-side by closing the listener-side conn through closer
		// AFTER sending one message so the peer is mid-protocol.
		_ = comm.send(1, 1, []byte("x")) // mid-protocol crash follows; the send's fate is irrelevant
		closer.Close()                   // graceful close sends goodbye...
		done <- result{nil}
	}()
	go func() {
		comm, closer, err := ConnectTCP(1, addrs, 5*time.Second)
		if err != nil {
			done <- result{err}
			return
		}
		defer closer.Close()
		if _, err := comm.recv(0, 1); err != nil {
			done <- result{fmt.Errorf("first recv failed: %w", err)}
			return
		}
		// The peer has closed gracefully; a further receive must not match
		// anything. Use Irecv+timeout to confirm it simply stays pending
		// (graceful shutdown does not poison) — the fail-stop poisoning
		// path is exercised by TestTCPAbruptDisconnect below.
		req, err := comm.Irecv(0, 2)
		if err != nil {
			done <- result{err}
			return
		}
		select {
		case <-req.done:
			_, werr := req.Wait()
			done <- result{fmt.Errorf("unexpected completion: %v", werr)}
		case <-time.After(200 * time.Millisecond):
			done <- result{nil}
		}
	}()
	for i := 0; i < 2; i++ {
		if r := <-done; r.err != nil {
			t.Fatal(r.err)
		}
	}
}

// TestTCPAbruptDisconnect kills a connection WITHOUT the goodbye handshake
// (simulating a crashed peer) and verifies the survivor's pending receive
// errors out instead of hanging — the fail-stop guarantee.
func TestTCPAbruptDisconnect(t *testing.T) {
	addrs := freeAddrs(t, 2)
	errs := make(chan error, 2)
	go func() {
		comm, closer, err := ConnectTCP(0, addrs, 5*time.Second)
		if err != nil {
			errs <- err
			return
		}
		_ = closer
		// Crash: close the raw socket to rank 1 directly, bypassing the
		// graceful goodbye (package-internal access).
		tt := comm.eng.tr.(*tcpTransport)
		time.Sleep(100 * time.Millisecond) // let rank 1 post its receive
		tt.conns[1].c.Close()
		errs <- nil
	}()
	go func() {
		comm, closer, err := ConnectTCP(1, addrs, 5*time.Second)
		if err != nil {
			errs <- err
			return
		}
		defer closer.Close()
		_, rerr := comm.recv(0, 7) // must fail, not hang
		if rerr == nil {
			errs <- fmt.Errorf("recv succeeded after peer crash")
			return
		}
		// Subsequent operations must fail fast too.
		if _, rerr := comm.recv(0, 8); rerr == nil {
			errs <- fmt.Errorf("post-crash recv succeeded")
			return
		}
		errs <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
