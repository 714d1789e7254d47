//go:build unix

package mpi

import (
	"errors"
	"io"
	"syscall"
	"time"
)

// pollEvery throttles the pollers' reads: a Test or Wait reads the sockets
// at most once per pollEvery, which bounds both the system time a poll
// loop spends on empty sockets and the delay it adds to a frame.
const pollEvery = 20 * time.Microsecond

// startProgress makes the goroutines that poll or wait on this world's
// requests read its sockets (see progress). Called once the mesh is
// formed, before the readLoops start and the communicator is handed out.
func (tt *tcpTransport) startProgress() {
	for peer, tc := range tt.conns {
		if tc == nil {
			continue
		}
		tc.drainFD = func(fd uintptr) { tt.drain(peer, tc, int(fd)) }
		tc.waitFD = func(fd uintptr) bool {
			tc.rm.Lock()
			defer tc.rm.Unlock()
			tt.drain(peer, tc, int(fd))
			return tc.rxErr != nil || tc.rx != tc.seen
		}
	}
	tt.eng.progress = tt.progress
}

// progress is the engine's progress hook: it drains every connection's
// socket, at most once per pollEvery, skipping a socket another goroutine
// is reading. With nothing arrived it costs one read system call per peer
// and allocates nothing.
func (tt *tcpTransport) progress() {
	now := int64(time.Since(tt.born))
	if last := tt.polled.Load(); now-last < int64(pollEvery) || !tt.polled.CompareAndSwap(last, now) {
		return
	}
	for _, tc := range tt.conns {
		if tc == nil || !tc.rm.TryLock() {
			continue
		}
		tc.rc.Control(tc.drainFD) // an error means the socket is closed; the readLoop reports it
		tc.rm.Unlock()
	}
}

// await blocks until bytes from the peer have arrived, whoever read them,
// or the stream ended, and returns nil or the error that ended it. It
// waits in the runtime's network poller and drains the socket when woken.
func (tt *tcpTransport) await(peer int, tc *tcpConn) error {
	tc.rm.Lock()
	tc.seen = tc.rx
	tc.rm.Unlock()
	if err := tc.rc.Read(tc.waitFD); err != nil {
		return err
	}
	tc.rm.Lock()
	defer tc.rm.Unlock()
	return tc.rxErr
}

// drain reads what the socket already holds, without blocking, and acts
// on every frame it completes. The stream's end is recorded in tc.rxErr.
// Callers hold tc.rm.
func (tt *tcpTransport) drain(peer int, tc *tcpConn, fd int) {
	for tc.rxErr == nil {
		space := tc.in.space()
		n, err := syscall.Read(fd, space)
		switch {
		case n > 0:
			tt.received(peer, tc, n)
			if n < len(space) {
				return // the socket is empty
			}
		case errors.Is(err, syscall.EINTR):
		case errors.Is(err, syscall.EAGAIN):
			return
		case err != nil:
			tc.rxErr = err
		default:
			tc.rxErr = io.EOF
		}
	}
}
