package mpi

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// tcpTransport connects ranks across OS processes (or hosts) with a full
// mesh of TCP connections, one per unordered rank pair. Frames are
// length-prefixed: {ctx u64, src i32, tag i32, len u32, payload}. A
// per-connection write lock serializes concurrent senders; a reader
// goroutine per connection feeds the local matching engine.
//
// Liveness: a background goroutine sends a heartbeat frame on every
// connection each HeartbeatInterval, and every read and write carries a
// LivenessTimeout deadline. A peer that resets its connection, EOFs
// without a goodbye, or stays silent past the deadline is declared dead
// via engine.notifyDeath — a typed ErrRankDead instead of the unbounded
// hang a silent peer used to cause on the epoch reduce path.
type tcpTransport struct {
	self  int
	conns []*tcpConn // indexed by peer world rank; conns[self] == nil
	eng   *engine
	opts  TCPOptions

	stopHB chan struct{} // closes to stop the heartbeat goroutine

	mu      sync.Mutex
	closed  bool
	started bool // readLoops running; gates the goodbye wait in close
}

type tcpConn struct {
	c net.Conn
	// wm serializes writers and guards the scratch a frame is assembled in
	// (vec, sliced from iov, points at hdr and the payload): header and
	// payload leave in one vectored write, so a frame is one segment under
	// TCP_NODELAY and a send allocates nothing.
	wm  sync.Mutex
	hdr [tcpFrameHeader]byte
	iov [2][]byte
	vec net.Buffers
	// goodbye is set when the peer announced a graceful shutdown. Only the
	// connection's readLoop goroutine writes it before sawBye is closed.
	goodbye bool
	// sawBye is closed once the peer's goodbye arrived or the readLoop
	// exited; graceful close waits on it so no socket is torn down while
	// the peer might still be reading (a premature close could turn the
	// peer's pending goodbye into a connection reset).
	sawBye     chan struct{}
	sawByeOnce sync.Once
	// departed is the timer armed at the peer's goodbye (see readLoop);
	// guarded by tcpTransport.mu and stopped when the transport closes.
	departed *time.Timer
}

func (tc *tcpConn) markBye() { tc.sawByeOnce.Do(func() { close(tc.sawBye) }) }

const tcpFrameHeader = 8 + 4 + 4 + 4

// goodbyeTag is a reserved control tag announcing graceful finalization.
const goodbyeTag = int32(-1)

// heartbeatTag is a reserved control tag carrying no payload; its arrival
// only refreshes the liveness deadline.
const heartbeatTag = int32(-2)

// TCPOptions tunes mesh formation and liveness detection. The zero value
// selects the defaults below.
type TCPOptions struct {
	// DialTimeout bounds mesh formation: ranks may start up to this far
	// apart. Default 30s.
	DialTimeout time.Duration
	// HeartbeatInterval is the cadence of heartbeat frames on every
	// connection, sent by a background goroutine so they keep flowing
	// while the process computes. Default 1s.
	HeartbeatInterval time.Duration
	// LivenessTimeout is the read/write deadline on every connection: a
	// peer silent for this long is declared dead (ErrRankDead). It is also
	// the window after which a peer that said goodbye mid-run is treated
	// as departed. Must comfortably exceed HeartbeatInterval. Default 10s.
	LivenessTimeout time.Duration
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout == 0 {
		o.DialTimeout = 30 * time.Second
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.LivenessTimeout == 0 {
		o.LivenessTimeout = 10 * time.Second
	}
	return o
}

// dialBackoff is the pause after failed dial attempt number attempt (from
// 0) with left remaining until the dial deadline: 1 ms doubling to a 50 ms
// cap, never past the deadline. Ranks started together miss each other by
// well under a millisecond, so the first retries must be cheap; the cap
// keeps a rank that waits seconds for a late peer from spinning.
func dialBackoff(attempt int, left time.Duration) time.Duration {
	d := 50 * time.Millisecond
	if attempt < 6 { // 1 ms << 6 is already past the cap
		d = time.Millisecond << attempt
	}
	return min(d, left)
}

// closeGrace bounds how long a graceful close waits for the peers' own
// goodbye frames before tearing the sockets down anyway.
const closeGrace = 3 * time.Second

func (tt *tcpTransport) isClosed() bool {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return tt.closed
}

func (tt *tcpTransport) send(dst int, env envelope) error {
	if dst == tt.self {
		tt.eng.deliver(env)
		return nil
	}
	if dst < 0 || dst >= len(tt.conns) || tt.conns[dst] == nil {
		return fmt.Errorf("mpi: no connection to rank %d", dst)
	}
	conn := tt.conns[dst]
	if err := tt.writeFrame(conn, env); err != nil {
		if tt.isClosed() {
			return fmt.Errorf("mpi: tcp send to %d: %w", dst, err)
		}
		// A failed or timed-out write means the peer stopped draining its
		// socket (or the connection reset): declare it dead so the sender
		// gets a typed, actionable error instead of a poisoned world.
		tt.eng.notifyDeath(dst, fmt.Errorf("tcp send: %w", err))
		conn.c.Close()
		return ErrRankDead{Rank: dst, Cause: err}
	}
	return nil
}

// writeFrame writes one frame — data, heartbeat or goodbye — with the
// liveness timeout as write deadline.
func (tt *tcpTransport) writeFrame(conn *tcpConn, env envelope) error {
	conn.wm.Lock()
	defer conn.wm.Unlock()
	binary.LittleEndian.PutUint64(conn.hdr[0:], env.ctx)
	binary.LittleEndian.PutUint32(conn.hdr[8:], uint32(env.src))
	binary.LittleEndian.PutUint32(conn.hdr[12:], uint32(env.tag))
	binary.LittleEndian.PutUint32(conn.hdr[16:], uint32(len(env.data)))
	conn.c.SetWriteDeadline(time.Now().Add(tt.opts.LivenessTimeout))
	if len(env.data) == 0 {
		// Already contiguous, and a plain write measured 4 us cheaper than
		// a vectored one on the barrier's header-only frames.
		_, err := conn.c.Write(conn.hdr[:])
		return err
	}
	conn.iov = [2][]byte{conn.hdr[:], env.data}
	conn.vec = conn.iov[:] // WriteTo consumes vec, so re-slice it per frame
	_, err := conn.vec.WriteTo(conn.c)
	return err
}

// heartbeatLoop keeps every connection warm so the peers' liveness
// deadlines only fire on genuine silence. It runs independently of the
// rank's compute thread — a rank deep in a diameter BFS still heartbeats.
func (tt *tcpTransport) heartbeatLoop() {
	ticker := time.NewTicker(tt.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-tt.stopHB:
			return
		case <-ticker.C:
		}
		for peer, c := range tt.conns {
			if c == nil || peer == tt.self {
				continue
			}
			// Errors are ignored: the readLoop (or the next data write)
			// owns failure detection for this connection.
			tt.writeFrame(c, envelope{tag: heartbeatTag})
		}
	}
}

// shut marks the transport closed, stops the heartbeat goroutine and the
// departure timers (each would otherwise keep the whole world reachable for
// a liveness window), and reports whether this call did so and whether the
// readLoops were running.
func (tt *tcpTransport) shut() (first, started bool) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if tt.closed {
		return false, tt.started
	}
	tt.closed = true
	close(tt.stopHB)
	for _, c := range tt.conns {
		if c != nil && c.departed != nil {
			c.departed.Stop()
		}
	}
	return true, tt.started
}

func (tt *tcpTransport) close() error {
	first, started := tt.shut()
	if !first {
		return nil
	}
	// Announce graceful shutdown to every peer, wait briefly for theirs
	// (so no socket is closed while the peer is still reading from it),
	// then tear down. Errors are ignored: the peer may already be gone.
	for _, c := range tt.conns {
		if c != nil {
			tt.writeFrame(c, envelope{tag: goodbyeTag})
		}
	}
	if started {
		deadline := time.After(closeGrace)
		for _, c := range tt.conns {
			if c == nil {
				continue
			}
			select {
			case <-c.sawBye:
			case <-deadline:
			}
		}
	}
	for _, c := range tt.conns {
		if c != nil {
			c.c.Close()
		}
	}
	return nil
}

// abort tears the mesh down with no goodbye: peers observe a reset and
// declare this rank dead. The local engine is poisoned so this rank's own
// in-flight operations fail promptly.
func (tt *tcpTransport) abort() {
	if first, _ := tt.shut(); !first {
		return
	}
	for _, c := range tt.conns {
		if c != nil {
			c.c.Close()
		}
	}
	tt.eng.fail(errAborted)
}

// readLoop pumps frames from one peer into the engine until the connection
// dies. A connection lost without a goodbye frame — reset, EOF, or
// liveness deadline — declares the peer dead; a goodbye-then-EOF is a
// graceful departure, treated as a (deferred) death only if this process
// is still running a liveness window later, so a peer that exits the run
// early cannot hang the survivors either.
func (tt *tcpTransport) readLoop(peer int, tc *tcpConn) {
	conn := tc.c
	hdr := make([]byte, tcpFrameHeader)
	die := func(err error) {
		tc.markBye()
		if tt.isClosed() {
			return
		}
		if tc.goodbye {
			return // deferred timer armed at goodbye time handles it
		}
		tt.eng.notifyDeath(peer, fmt.Errorf("connection lost: %w", err))
		conn.Close()
	}
	// During mesh formation the peers may lag by up to the dial timeout
	// before their first heartbeat; afterwards, silence past the liveness
	// timeout is death.
	deadline := tt.opts.DialTimeout + tt.opts.LivenessTimeout
	for {
		conn.SetReadDeadline(time.Now().Add(deadline))
		if _, err := io.ReadFull(conn, hdr); err != nil {
			die(err)
			return
		}
		deadline = tt.opts.LivenessTimeout
		env := envelope{
			ctx: binary.LittleEndian.Uint64(hdr[0:]),
			src: int32(binary.LittleEndian.Uint32(hdr[8:])),
			tag: int32(binary.LittleEndian.Uint32(hdr[12:])),
		}
		if env.tag == heartbeatTag {
			continue
		}
		if env.tag == goodbyeTag {
			tc.goodbye = true
			// The peer finished its run. If this process is still working
			// a liveness window later, the departure is for all purposes a
			// death: collectives involving the peer can never complete.
			tt.mu.Lock()
			if !tt.closed && tc.departed == nil {
				tc.departed = time.AfterFunc(tt.opts.LivenessTimeout, func() {
					if !tt.isClosed() {
						tt.eng.notifyDeath(peer, fmt.Errorf("peer departed"))
					}
				})
			}
			tt.mu.Unlock()
			tc.markBye()
			continue
		}
		if n := binary.LittleEndian.Uint32(hdr[16:]); n > 0 {
			conn.SetReadDeadline(time.Now().Add(tt.opts.LivenessTimeout))
			var err error
			if env.data, err = readPayload(conn, int(n)); err != nil {
				die(err)
				return
			}
		}
		tt.eng.deliver(env)
	}
}

// readChunk is the largest buffer a frame payload starts reading into.
const readChunk = 1 << 20

// readPayload reads an n-byte frame payload. n comes off the wire
// unchecked, so the buffer starts at min(n, readChunk) and doubles only
// once full, never holding more than twice the bytes that have arrived: a
// frame below readChunk costs one allocation, and a header claiming
// gigabytes from a peer that then stops costs one chunk.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, readChunk))
	got := 0
	for {
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			return nil, err
		}
		if got = len(buf); got == n {
			return buf, nil
		}
		next := make([]byte, min(n, 2*got))
		copy(next, buf)
		buf = next
	}
}

// TCPWorld is this rank's handle on a TCP mesh. Close performs a graceful
// shutdown (goodbye handshake with every peer); Abort tears the
// connections down with no goodbye, so peers observe this rank as dead
// within their detection window — the fault-injection hook for
// kill-a-rank tests and emergency exits.
type TCPWorld struct {
	tt *tcpTransport
}

// Close shuts the mesh down gracefully. Safe to call more than once.
func (w *TCPWorld) Close() error { return w.tt.close() }

// Abort hard-closes every connection without a goodbye and poisons the
// local engine. Peers detect the reset (or, under a partition, the
// heartbeat silence) and declare this rank dead.
func (w *TCPWorld) Abort() { w.tt.abort() }

// ConnectTCP joins a TCP world with default liveness options. addrs lists
// the listen address of every rank, in rank order; rank is this process's
// position. See ConnectTCPOpts.
func ConnectTCP(rank int, addrs []string, timeout time.Duration) (*Comm, *TCPWorld, error) {
	return ConnectTCPOpts(rank, addrs, TCPOptions{DialTimeout: timeout})
}

// ConnectTCPOpts joins a TCP world. The function listens on addrs[rank],
// dials every lower rank, accepts connections from every higher rank, and
// returns the world communicator once the mesh is complete. Close the
// returned world to tear it down.
//
// The handshake is a single uint32 carrying the dialer's rank. Dial
// attempts retry (see dialBackoff) until the dial timeout elapses, so ranks
// may start in any order.
func ConnectTCPOpts(rank int, addrs []string, opts TCPOptions) (*Comm, *TCPWorld, error) {
	opts = opts.withDefaults()
	p := len(addrs)
	if rank < 0 || rank >= p {
		return nil, nil, fmt.Errorf("mpi: rank %d out of range for %d addrs", rank, p)
	}
	eng := newEngine(rank)
	tt := &tcpTransport{
		self:   rank,
		conns:  make([]*tcpConn, p),
		eng:    eng,
		opts:   opts,
		stopHB: make(chan struct{}),
	}
	eng.tr = tt

	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, nil, fmt.Errorf("mpi: listen %s: %w", addrs[rank], err)
	}
	defer ln.Close()

	deadline := time.Now().Add(opts.DialTimeout)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	setErr := func(e error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = e
		}
		mu.Unlock()
	}

	// Dial lower ranks.
	for peer := 0; peer < rank; peer++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			var conn net.Conn
			for attempt := 0; ; attempt++ {
				// Every attempt gets at least 1 ms, so the first one runs
				// however short the budget.
				left := max(time.Until(deadline), time.Millisecond)
				var derr error
				conn, derr = net.DialTimeout("tcp", addrs[peer], min(left, time.Second))
				if derr == nil {
					break
				}
				left = time.Until(deadline)
				if left <= 0 {
					setErr(fmt.Errorf("mpi: dial rank %d (%s): %w", peer, addrs[peer], derr))
					return
				}
				time.Sleep(dialBackoff(attempt, left))
			}
			var hello [4]byte
			binary.LittleEndian.PutUint32(hello[:], uint32(rank))
			if _, werr := conn.Write(hello[:]); werr != nil {
				setErr(werr)
				conn.Close()
				return
			}
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			mu.Lock()
			tt.conns[peer] = &tcpConn{c: conn, sawBye: make(chan struct{})}
			mu.Unlock()
		}(peer)
	}

	// Accept higher ranks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for accepted := 0; accepted < p-1-rank; accepted++ {
			if dl, ok := ln.(*net.TCPListener); ok {
				dl.SetDeadline(deadline)
			}
			conn, aerr := ln.Accept()
			if aerr != nil {
				setErr(fmt.Errorf("mpi: accept: %w", aerr))
				return
			}
			var hello [4]byte
			if _, rerr := io.ReadFull(conn, hello[:]); rerr != nil {
				setErr(rerr)
				conn.Close()
				return
			}
			peer := int(binary.LittleEndian.Uint32(hello[:]))
			if peer <= rank || peer >= p {
				setErr(fmt.Errorf("mpi: unexpected hello from rank %d", peer))
				conn.Close()
				return
			}
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			mu.Lock()
			tt.conns[peer] = &tcpConn{c: conn, sawBye: make(chan struct{})}
			mu.Unlock()
		}
	}()
	wg.Wait()
	if firstErr != nil {
		tt.close()
		return nil, nil, firstErr
	}
	tt.mu.Lock()
	tt.started = true
	tt.mu.Unlock()
	for peer, c := range tt.conns {
		if peer != rank && c != nil {
			go tt.readLoop(peer, c)
		}
	}
	go tt.heartbeatLoop()
	glob := make([]int, p)
	for i := range glob {
		glob[i] = i
	}
	comm := &Comm{eng: eng, ctx: 0, rank: rank, glob: glob}
	return comm, &TCPWorld{tt: tt}, nil
}
