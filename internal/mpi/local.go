package mpi

import (
	"errors"
	"fmt"
	"sync"
)

// localTransport connects P in-process "processes" (goroutine groups). Sends
// deliver eagerly into the destination engine — a function call protected by
// the engine's own lock — so the transport is unbounded and collective
// algorithms can never deadlock on flow control. This mirrors MPI's
// shared-memory device, where local messages bypass the NIC.
//
// Each rank holds its own localTransport value (carrying the sender rank)
// over one shared localState, so the fault-injection hook can observe the
// (src, dst) of every frame.
type localTransport struct {
	src int
	st  *localState
}

type localState struct {
	engines []*engine

	mu   sync.RWMutex
	hook FaultHook
	dead []bool
}

// FaultHook observes every frame the in-process transport carries and
// decides its fate. It runs on the sender's goroutine, so sleeping inside
// it models link delay. Returning false drops the frame silently — the
// receiver simply never sees it, like a frame in flight at the moment of
// a crash. Deterministic hooks give deterministic failure scenarios.
type FaultHook func(src, dst, size int) bool

func (lt *localTransport) send(dst int, env envelope) error {
	st := lt.st
	if dst < 0 || dst >= len(st.engines) {
		return fmt.Errorf("mpi: world rank %d out of range", dst)
	}
	st.mu.RLock()
	hook := st.hook
	deadDst := st.dead[dst]
	st.mu.RUnlock()
	if deadDst {
		return nil // frames to a dead rank vanish, like writes to a gone host
	}
	if hook != nil && !hook(lt.src, dst, len(env.data)) {
		return nil
	}
	st.engines[dst].deliver(env)
	return nil
}

func (lt *localTransport) close() error { return nil }

// World holds the per-process entry points of an in-process run.
type World struct {
	comms []*Comm
	st    *localState
}

// NewLocalWorld creates a world of p in-process ranks and returns the world
// communicator of each. Rank i's communicator must only be driven by rank
// i's goroutine(s).
func NewLocalWorld(p int) *World {
	if p < 1 {
		panic("mpi: world size must be positive")
	}
	st := &localState{engines: make([]*engine, p), dead: make([]bool, p)}
	w := &World{comms: make([]*Comm, p), st: st}
	glob := make([]int, p)
	for i := range glob {
		glob[i] = i
	}
	for i := 0; i < p; i++ {
		eng := newEngine(i)
		eng.tr = &localTransport{src: i, st: st}
		st.engines[i] = eng
		w.comms[i] = &Comm{eng: eng, ctx: 0, rank: i, glob: glob}
	}
	return w
}

// Comm returns the world communicator of rank i.
func (w *World) Comm(i int) *Comm { return w.comms[i] }

// SetFaultHook installs (or, with nil, clears) the fault-injection hook
// applied to every subsequent frame.
func (w *World) SetFaultHook(h FaultHook) {
	w.st.mu.Lock()
	w.st.hook = h
	w.st.mu.Unlock()
}

// Kill abruptly terminates rank r: frames to and from it vanish, its own
// engine is poisoned (pending and future operations fail with ErrKilled),
// and every other rank immediately observes ErrRankDead{r} — the
// in-process analogue of a crashed process whose connections reset, with
// the detection latency collapsed to zero for determinism.
func (w *World) Kill(r int) {
	w.st.mu.Lock()
	w.st.dead[r] = true
	w.st.mu.Unlock()
	w.comms[r].eng.fail(ErrKilled)
	for i, c := range w.comms {
		if i != r {
			c.eng.notifyDeath(r, ErrKilled)
		}
	}
}

// MarkDeadAt makes observer's engine treat target as dead without touching
// target's engine — the detection half of a network partition, where both
// sides stay alive but each declares the other dead once its liveness
// window expires. The in-process world has no liveness timers; the
// injector decides when detection fires, which keeps partition scenarios
// deterministic.
func (w *World) MarkDeadAt(observer, target int, cause error) {
	if cause == nil {
		cause = errors.New("mpi: partitioned")
	}
	w.comms[observer].eng.notifyDeath(target, cause)
}

// RunLocal runs fn concurrently as p ranks over an in-process world and
// waits for all of them. The first non-nil error is returned (all ranks
// always run to completion, as aborting mid-collective would deadlock
// peers).
func RunLocal(p int, fn func(c *Comm) error) error {
	w := NewLocalWorld(p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(w.Comm(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("mpi: rank %d: %w", i, err)
		}
	}
	return nil
}
