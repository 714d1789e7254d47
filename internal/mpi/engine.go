package mpi

import (
	"runtime"
	"sync"
)

// engine is the per-process message-matching engine. Incoming envelopes are
// matched against posted receives by (ctx, src, tag); unmatched messages are
// buffered ("unexpected queue" in MPI terminology), unmatched receives wait
// on a Request. Messages between one (ctx, src, tag) triple are delivered in
// send order, as MPI guarantees.
type engine struct {
	worldRank int
	tr        transport

	mu         sync.Mutex
	unexpected map[matchKey][][]byte
	pending    map[matchKey][]*Request
	closed     bool
	err        error
	// dead records peers declared dead (world rank -> ErrRankDead); gen is
	// bumped on every death and fences communicators built before it (see
	// fault.go). lastDeath is the most recent death error, returned by
	// fenced operations.
	dead      map[int]error
	gen       uint64
	lastDeath error
}

type matchKey struct {
	ctx uint64
	src int32
	tag int32
}

func newEngine(worldRank int) *engine {
	return &engine{
		worldRank:  worldRank,
		unexpected: make(map[matchKey][][]byte),
		pending:    make(map[matchKey][]*Request),
	}
}

// deliver is called by the transport when an envelope arrives.
func (e *engine) deliver(env envelope) {
	key := matchKey{env.ctx, env.src, env.tag}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	if reqs := e.pending[key]; len(reqs) > 0 {
		req := reqs[0]
		if len(reqs) == 1 {
			delete(e.pending, key)
		} else {
			e.pending[key] = reqs[1:]
		}
		e.mu.Unlock()
		req.complete(env.data, nil)
		return
	}
	e.unexpected[key] = append(e.unexpected[key], env.data)
	e.mu.Unlock()
}

// post registers a receive for (ctx, src, tag), matching a buffered message
// if one is already present. gen is the posting communicator's failure
// generation: a stale generation fails fast with the latest death error.
func (e *engine) post(key matchKey, gen uint64, req *Request) {
	e.mu.Lock()
	if e.closed {
		err := e.err
		e.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		req.complete(nil, err)
		return
	}
	if gen != e.gen {
		err := e.lastDeath
		e.mu.Unlock()
		req.complete(nil, err)
		return
	}
	if msgs := e.unexpected[key]; len(msgs) > 0 {
		data := msgs[0]
		if len(msgs) == 1 {
			delete(e.unexpected, key)
		} else {
			e.unexpected[key] = msgs[1:]
		}
		e.mu.Unlock()
		req.complete(data, nil)
		return
	}
	e.pending[key] = append(e.pending[key], req)
	e.mu.Unlock()
}

// postRecovery registers a receive on the recovery channel for a message
// from world rank src. It bypasses the generation fence but fails
// immediately if src is already dead.
func (e *engine) postRecovery(src int, tag int32, req *Request) {
	key := matchKey{recoveryCtx, int32(src), tag}
	e.mu.Lock()
	if e.closed {
		err := e.err
		e.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		req.complete(nil, err)
		return
	}
	if derr, ok := e.dead[src]; ok {
		e.mu.Unlock()
		req.complete(nil, derr)
		return
	}
	if msgs := e.unexpected[key]; len(msgs) > 0 {
		data := msgs[0]
		if len(msgs) == 1 {
			delete(e.unexpected, key)
		} else {
			e.unexpected[key] = msgs[1:]
		}
		e.mu.Unlock()
		req.complete(data, nil)
		return
	}
	e.pending[key] = append(e.pending[key], req)
	e.mu.Unlock()
}

// notifyDeath records world rank r as dead: the failure generation is
// bumped (fencing every communicator built before the death) and all
// pending operations are revoked with ErrRankDead — except recovery-channel
// receives from other, still-live sources, which the world-reconfiguration
// handshake depends on. Idempotent per rank; the engine stays open.
func (e *engine) notifyDeath(r int, cause error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	if _, ok := e.dead[r]; ok {
		e.mu.Unlock()
		return
	}
	if e.dead == nil {
		e.dead = make(map[int]error)
	}
	err := ErrRankDead{Rank: r, Cause: cause}
	e.dead[r] = err
	e.gen++
	e.lastDeath = err
	var revoked []*Request
	for key, reqs := range e.pending {
		if key.ctx == recoveryCtx && int(key.src) != r {
			continue
		}
		revoked = append(revoked, reqs...)
		delete(e.pending, key)
	}
	e.mu.Unlock()
	for _, req := range revoked {
		req.complete(nil, err)
	}
}

// generation returns the current failure generation; communicators capture
// it at construction time.
func (e *engine) generation() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gen
}

// fence validates a communicator generation before an operation, so that
// survivors of a death fail fast instead of blocking on a communication
// pattern that can no longer complete.
func (e *engine) fence(gen uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		if e.err != nil {
			return e.err
		}
		return ErrClosed
	}
	if gen != e.gen {
		return e.lastDeath
	}
	return nil
}

// fail poisons the engine: all pending and future receives error out.
// Called when a transport connection breaks.
func (e *engine) fail(err error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.err = err
	pending := e.pending
	e.pending = make(map[matchKey][]*Request)
	e.mu.Unlock()
	for _, reqs := range pending {
		for _, r := range reqs {
			r.complete(nil, err)
		}
	}
}

// Request represents an in-flight non-blocking operation. It is completed
// exactly once; Wait blocks for completion, Test polls without blocking and
// yields (see Test).
type Request struct {
	done chan struct{}
	data []byte
	err  error
}

func newRequest() *Request {
	return &Request{done: make(chan struct{})}
}

func (r *Request) complete(data []byte, err error) {
	r.data = data
	r.err = err
	close(r.done)
}

// Test reports whether the operation has completed, without blocking. This
// is what lets the sampling loop interleave work with communication (paper
// Alg. 1/2: "while IREDUCE is not done do sample"; the engine polls its
// IBarrier and IBcast this way).
//
// Test is also the progress call, as MPI_Test is: when the operation is not
// complete it yields the processor once before returning false, so the
// goroutine running the collective and the transport's reader goroutines
// get the polling P between two units of the caller's work. A poll loop
// that never blocks would otherwise starve them until the runtime preempts
// it, one scheduler quantum (10 ms) per message hop.
func (r *Request) Test() bool {
	select {
	case <-r.done:
		return true
	default:
		runtime.Gosched()
		return false
	}
}

// Wait blocks until the operation completes and returns its payload (for
// receives and data-bearing collectives) and error.
func (r *Request) Wait() ([]byte, error) {
	<-r.done
	return r.data, r.err
}

// completedRequest returns an already-completed request, used by collectives
// on single-member communicators.
func completedRequest(data []byte, err error) *Request {
	r := newRequest()
	r.complete(data, err)
	return r
}
