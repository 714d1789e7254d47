package mpi

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// The progress contract: a loop that only polls Request.Test must complete
// a non-blocking collective. In process, Test yields, so the other ranks
// get the processor; over TCP, Test also reads the frames that reached the
// socket, so no reader goroutine has to be scheduled for a message to
// arrive. One P makes the starvation certain instead of likely: without
// the yield every message hop waits for the runtime to preempt the
// spinning poller (10 ms), which measured 41 ms per barrier in process and
// 61 ms over TCP.

// pollBarriers returns a rank function that runs len(rounds) non-blocking
// barriers, each polled by a bare loop that does no work and never blocks,
// and records in rounds how long each took on rank 0.
func pollBarriers(rounds []time.Duration) func(*Comm) error {
	return func(c *Comm) error {
		for i := range rounds {
			start := time.Now()
			req := c.IBarrier()
			for !req.Test() {
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				rounds[i] = time.Since(start)
			}
		}
		return nil
	}
}

func TestPollLoopProgressLocal(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rounds := make([]time.Duration, 200)
	start := time.Now()
	if err := RunLocal(2, pollBarriers(rounds)); err != nil {
		t.Fatal(err)
	}
	// In process a hop is a goroutine wake-up: microseconds per round.
	if el := time.Since(start); el > time.Second {
		t.Fatalf("%d polled barriers took %v: Test is not making progress", len(rounds), el)
	}
}

// TestPollLoopProgressTCP: two TCP ranks in this process, each polling
// barriers. A reader goroutine woken by the network poller needs a free P,
// and while every P polls the runtime looks at the sockets only from its
// monitor thread, every 10 ms. On a 2-CPU Xeon, with only the readers
// delivering, the median round took 10.1 ms at one P whatever Test did,
// and 18-60 us at two. With Test reading the sockets itself it takes
// 15-16 us at one P and 15-22 us at two, 40-42 and 22 us under the race
// detector. The bounds sit well above those, and below the 10 ms floor at
// one P and, at two, the 140 us per round of a poll that read every
// socket on every call and left the collective's goroutine spinning in
// Wait. A median over 200 rounds shrugs off a stray preemption; a run
// whose median still misses the bound is repeated, up to three runs, so
// that load on the machine running the tests has to last through all
// three to fail it.
func TestPollLoopProgressTCP(t *testing.T) {
	for _, tc := range []struct {
		procs int
		bound time.Duration
	}{
		{1, time.Millisecond},
		{2, 100 * time.Microsecond},
	} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", tc.procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			var med time.Duration
			for run := 0; run < 3; run++ {
				rounds := make([]time.Duration, 200)
				runTCP(t, 2, pollBarriers(rounds))
				slices.Sort(rounds)
				med = rounds[len(rounds)/2]
				t.Logf("run %d: median %v per polled barrier (quartiles %v, %v)", run, med, rounds[len(rounds)/4], rounds[3*len(rounds)/4])
				if med <= tc.bound {
					return
				}
			}
			t.Fatalf("median polled barrier %v, want <= %v: Test is not making progress", med, tc.bound)
		})
	}
}

// connectPair forms a two-rank TCP world in this process and returns both
// ranks' communicators and worlds; the worlds are aborted at cleanup.
func connectPair(t *testing.T, opts TCPOptions) ([2]*Comm, [2]*TCPWorld) {
	t.Helper()
	addrs := freeAddrs(t, 2)
	var comms [2]*Comm
	var worlds [2]*TCPWorld
	var errs [2]error
	var wg sync.WaitGroup
	for r := range comms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			comms[r], worlds[r], errs[r] = ConnectTCPOpts(r, addrs, opts)
		}()
	}
	wg.Wait()
	for r, w := range worlds {
		if w != nil {
			t.Cleanup(w.tt.abort)
		}
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
	}
	return comms, worlds
}

// pollUntil polls req with Test, and nothing else, until it completes or
// limit passes; it reports whether req completed.
func pollUntil(req *Request, limit time.Duration) bool {
	for start := time.Now(); time.Since(start) < limit; {
		if req.Test() {
			return true
		}
	}
	return false
}

// TestTCPPolledPeerResetDetected: a peer whose connection resets while the
// survivor only polls a receive from it is declared dead, however the
// reset was read: by the poll or by the connection's reader. The liveness
// timeout is long, so only the reset can end the receive in time.
func TestTCPPolledPeerResetDetected(t *testing.T) {
	comms, worlds := connectPair(t, TCPOptions{DialTimeout: 5 * time.Second, LivenessTimeout: 30 * time.Second})
	req, err := comms[0].Irecv(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	pollUntil(req, 5*time.Millisecond) // the survivor is polling when the reset lands
	conn := worlds[1].tt.conns[0].c.(*net.TCPConn)
	conn.SetLinger(0) // close with a reset, not a FIN
	conn.Close()
	start := time.Now()
	if !pollUntil(req, 5*time.Second) {
		t.Fatal("a receive from a peer that reset is still pending after 5s of polling")
	}
	_, err = req.Wait()
	if rd, ok := AsRankDead(err); !ok || rd.Rank != 1 {
		t.Fatalf("want ErrRankDead{1}, got %v", err)
	}
	t.Logf("reset detected after %v", time.Since(start))
}

// TestTCPPolledGoodbyeClosesGracefully: a goodbye frame read by a poller
// marks the peer's goodbye as seen, just as one read by the connection's
// reader does, so the survivor's Close does not wait out closeGrace for a
// goodbye it already has. At one P the poll, not the reader, reads the
// frame: the reader runs only when the runtime's monitor polls the
// network, every 10 ms.
func TestTCPPolledGoodbyeClosesGracefully(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	comms, worlds := connectPair(t, TCPOptions{})
	req, err := comms[0].Irecv(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 says goodbye and keeps its socket open, as a peer closing
	// gracefully does while it waits for the survivor's goodbye.
	tt1 := worlds[1].tt
	if err := tt1.writeFrame(tt1.conns[0], envelope{tag: goodbyeTag}); err != nil {
		t.Fatal(err)
	}
	if pollUntil(req, 20*time.Millisecond) {
		t.Fatal("the goodbye completed a receive")
	}
	select {
	case <-worlds[0].tt.conns[1].sawBye:
	default:
		t.Fatal("20ms of polling after the peer's goodbye, the goodbye is not marked seen")
	}
	start := time.Now()
	if err := worlds[0].Close(); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > closeGrace/10 {
		t.Fatalf("Close took %v after a polled goodbye, want well under closeGrace (%v)", el, closeGrace)
	}
}

// TestTCPIdlePollAllocatesNothing: a poll that reads the socket of a peer
// that sent nothing allocates nothing, so a loop that polls between
// samples makes no garbage while it waits.
func TestTCPIdlePollAllocatesNothing(t *testing.T) {
	comms, _ := connectPair(t, TCPOptions{})
	req, err := comms[0].Irecv(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(2000, func() { req.Test() }); a != 0 {
		t.Fatalf("an idle Test allocates %v times", a)
	}
	if req.Test() {
		t.Fatal("a receive completed with nothing sent")
	}
}
