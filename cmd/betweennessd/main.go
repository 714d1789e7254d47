// Command betweennessd serves betweenness estimation over HTTP: upload
// graphs, create resumable estimation sessions against them, run and
// refine those sessions asynchronously, and stream per-epoch progress.
// See the repro/internal/server package for the API and its semantics.
//
// Usage:
//
//	betweennessd [-addr :8372] [-data DIR] [-max-runs N] [-cache-size N]
//	             [-checkpoint-interval D] [-run-timeout D]
//
// With -data, state survives restarts — unclean ones included: graphs
// persist at upload, and each session is one record (params, status and
// samples) rewritten whole at creation and at the end of every run or
// refine; running sessions are checkpointed into it every
// -checkpoint-interval (so a SIGKILL loses at most one interval of
// sampling; a SIGTERM/SIGINT drain loses none). A restart re-seeds the
// result cache from the converged sessions, and quarantines rather than
// trips over files torn by a crash. The daemon listens before it rehydrates: /healthz is live
// immediately and /readyz turns 200 once recovery finishes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8372", "listen address")
	dataDir := flag.String("data", "", "persistence directory (empty: in-memory only, nothing survives restarts)")
	maxRuns := flag.Int("max-runs", 2, "maximum concurrent estimator runs (admission control)")
	cacheSize := flag.Int("cache-size", 128, "result cache capacity in entries (negative disables)")
	ckptInterval := flag.Duration("checkpoint-interval", 0, "periodic checkpoint cadence for running sessions (0: default 30s, negative disables)")
	runTimeout := flag.Duration("run-timeout", 0, "server-side watchdog per run/refine; expired runs are interrupted, sessions stay resumable (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "maximum time to wait for in-flight runs on shutdown")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "betweennessd: ", log.LstdFlags)

	// Listen before rehydrating: recovery over a large data dir takes a
	// while, and a load balancer probing the boot handler sees an honest
	// "alive but not ready" instead of a connection refused. The real
	// handler is swapped in atomically once the server is up.
	var handler atomic.Value // of http.Handler
	handler.Store(bootHandler())
	httpSrv := newHTTPServer(*addr, http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			handler.Load().(http.Handler).ServeHTTP(w, r)
		}))
	serveErr := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", *addr)
		serveErr <- httpSrv.ListenAndServe()
	}()

	srv, err := server.New(server.Config{
		DataDir:            *dataDir,
		MaxConcurrentRuns:  *maxRuns,
		CacheSize:          *cacheSize,
		CheckpointInterval: *ckptInterval,
		RunTimeout:         *runTimeout,
		Logf:               logger.Printf,
	})
	if err != nil {
		logger.Fatal(err)
	}
	handler.Store(readyWrapped(srv))

	// Graceful shutdown: first drain the estimation layer (cancel runs,
	// checkpoint sessions), then close the HTTP listener. Ordering matters —
	// draining first means late HTTP requests see clean 503s instead of
	// racing the checkpointer, and /readyz turns 503 the moment the drain
	// begins so load balancers stop routing first.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-sigs
		logger.Printf("received %v: draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			logger.Printf("drain: %v", err)
		}
		shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancelShutdown()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("http shutdown: %v", err)
		}
	}()

	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	<-done
}

// Connection-level limits of the daemon's listener. A client that opens a
// connection and never finishes its request headers, or parks an idle
// keep-alive connection, would otherwise hold a goroutine and a descriptor
// forever.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the daemon's listener with those limits.
// WriteTimeout (and ReadTimeout, which would also cover a large graph
// upload's body) stay 0 on purpose: the SSE progress streams are
// long-lived responses, and a write deadline would cut every one of them
// off mid-run.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// bootHandler serves the probe endpoints while the server rehydrates:
// alive, not ready, everything else 503.
func bootHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"starting: recovery scan in progress"}`)
	})
	return mux
}

// readyWrapped returns the server's handler as-is — the name documents the
// swap point: once stored, /readyz is served by the server itself, which
// reports ready until a drain begins.
func readyWrapped(srv *server.Server) http.Handler { return srv.Handler() }
