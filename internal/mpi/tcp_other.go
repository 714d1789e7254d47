//go:build !unix

package mpi

// startProgress leaves the readLoops the only readers where the socket
// cannot be read without blocking through the standard library.
func (tt *tcpTransport) startProgress() {}

// await blocks until bytes from the peer arrive, parses them, and returns
// nil or the error that ended the stream.
func (tt *tcpTransport) await(peer int, tc *tcpConn) error {
	tc.rm.Lock()
	space := tc.in.space()
	tc.rm.Unlock()
	n, err := tc.c.Read(space)
	tc.rm.Lock()
	defer tc.rm.Unlock()
	if n > 0 {
		tt.received(peer, tc, n)
	}
	if err == nil {
		err = tc.rxErr
	}
	return err
}
