package mpi

import (
	"runtime"
	"sync"
	"time"
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

	// progress, when set, moves frames that have already reached this
	// process from the transport into the engine; Request.Test and
	// Request.Wait call it on the goroutine that polls or waits. Only the
	// TCP transport sets it, before the world is handed out.
	progress func()
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
// exactly once; Wait blocks for completion, Test polls without blocking.
// Both are progress calls, as MPI_Test and MPI_Wait are: they move what
// the transport has received into the engine (TCP on unix) and advance a
// non-blocking collective, on the calling goroutine.
type Request struct {
	done chan struct{}
	data []byte
	err  error
	// eng is the engine whose progress hook Test and Wait call; nil for a
	// request completed at creation.
	eng *engine
	// coll is the non-blocking collective this request completes; nil for
	// a receive.
	coll collective
}

// collective is a non-blocking collective in flight. step advances it past
// every receive that has completed, sending what each round sends, and
// returns the receive it now waits for, or nil once it has completed its
// request. Only the goroutine that owns the request calls it (through
// Test and Wait), so a collective moves exactly when its owner polls or
// waits, as MPI's do without a progress thread, and needs no goroutine of
// its own.
type collective interface {
	step() *Request
}

// newRequest returns a pending request on e.
func (e *engine) newRequest() *Request {
	return &Request{done: make(chan struct{}), eng: e}
}

func (r *Request) complete(data []byte, err error) {
	r.data = data
	r.err = err
	close(r.done)
}

func (r *Request) isDone() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// poll makes one round of progress without blocking and reports whether
// the operation has completed.
func (r *Request) poll() bool {
	if r.isDone() {
		return true
	}
	if r.eng != nil && r.eng.progress != nil {
		r.eng.progress()
	}
	if r.coll != nil && !r.isDone() {
		r.coll.step()
	}
	return r.isDone()
}

// Test reports whether the operation has completed, without blocking. This
// is what lets the sampling loop interleave work with communication (paper
// Alg. 1/2: "while IREDUCE is not done do sample"; the engine polls its
// IBarrier and IBcast this way).
//
// Test is the progress call, as MPI_Test is. On a TCP world it first
// reads the frames that have reached its sockets (at most once per
// pollEvery), so a delivery needs no other goroutine to be scheduled;
// a non-blocking collective then takes every round its receives allow.
// When the operation is still not complete, Test yields the processor once
// before returning false, so the ranks of an in-process world get the
// polling P between two units of the caller's work: a poll loop that never
// blocks would otherwise hold it until the runtime preempts it, one
// scheduler quantum (10 ms) per message hop.
func (r *Request) Test() bool {
	if r.poll() {
		return true
	}
	runtime.Gosched()
	return false
}

// spinFor bounds how long Wait polls with progress before it parks: a
// frame already on its way arrives within it, and a wait it does not end
// (a peer still computing) costs one spin.
const spinFor = 200 * time.Microsecond

// Wait blocks until the operation completes and returns its payload (for
// receives and data-bearing collectives) and error. On a TCP world it
// first polls with progress, yielding between polls, for up to spinFor,
// then parks until a frame arrives through the connection's reader.
func (r *Request) Wait() ([]byte, error) {
	if r.eng != nil && r.eng.progress != nil {
		for start := time.Now(); !r.poll() && time.Since(start) < spinFor; {
			runtime.Gosched()
		}
	}
	for {
		w := r
		if r.coll != nil && !r.isDone() {
			if s := r.coll.step(); s != nil {
				w = s
			}
		}
		<-w.done
		if w == r {
			return r.data, r.err
		}
	}
}

// completedRequest returns an already-completed request, used by collectives
// on single-member communicators.
func completedRequest(data []byte, err error) *Request {
	r := &Request{done: make(chan struct{})}
	r.complete(data, err)
	return r
}
