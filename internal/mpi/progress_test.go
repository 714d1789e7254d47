package mpi

import (
	"runtime"
	"testing"
	"time"
)

// The progress contract: a loop that only polls Request.Test must let the
// collective's goroutine and the transport's readers run, because Test
// yields. One P makes the starvation certain instead of likely: without the
// yield every message hop waits for the runtime to preempt the spinning
// poller (10 ms), which measured 41 ms per barrier in process and 61 ms over
// TCP.

// pollBarriers returns a rank function that runs rounds non-blocking
// barriers, each polled by a bare loop that does no work and never blocks.
func pollBarriers(rounds int) func(*Comm) error {
	return func(c *Comm) error {
		for i := 0; i < rounds; i++ {
			req := c.IBarrier()
			for !req.Test() {
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestPollLoopProgressLocal(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 200
	start := time.Now()
	if err := RunLocal(2, pollBarriers(rounds)); err != nil {
		t.Fatal(err)
	}
	// In process a hop is a goroutine wake-up: microseconds per round.
	if el := time.Since(start); el > time.Second {
		t.Fatalf("%d polled barriers took %v: Test is not making progress", rounds, el)
	}
}

func TestPollLoopProgressTCP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 50
	start := time.Now()
	runTCP(t, 2, pollBarriers(rounds)) // connect and close add milliseconds
	// Over TCP a hop also needs the runtime to poll the network, and while
	// no P is idle only its monitor thread does, every 10 ms: a round costs
	// 10.4 ms here whatever Test does. The bound sits between that floor
	// and the 61 ms of a poll loop that does not yield.
	if el := time.Since(start); el > rounds*25*time.Millisecond {
		t.Fatalf("%d polled barriers took %v: Test is not making progress", rounds, el)
	}
}
