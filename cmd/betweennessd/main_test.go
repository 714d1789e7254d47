package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowHeaderClientDisconnected: a client that opens a connection and
// never finishes its request headers is cut off by ReadHeaderTimeout
// instead of holding a goroutine forever, while WriteTimeout stays off for
// the long-lived SSE streams.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", bootHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout ||
		readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("listener limits not wired: read-header %v idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut SSE progress streams", srv.WriteTimeout)
	}
	// Same server, shorter deadline, so the test does not wait out the
	// production constant.
	srv.ReadHeaderTimeout = 100 * time.Millisecond

	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request line and one header, but never the blank line ending them.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	// The server must hang up (EOF, possibly after a 408) well before this
	// read deadline; hitting the deadline means the connection was kept.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("slow-header connection not closed by the server: %v", err)
	}
}
