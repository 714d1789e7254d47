package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/kadabra"
	"repro/internal/mpi"
)

// faultCfg mirrors the simnet battery: NoOverlap pins per-epoch intake so
// runs last a predictable number of epochs and kills land deterministically.
func faultCfg(seed uint64) Config {
	return Config{
		Config:    kadabra.Config{Eps: 0.03, Delta: 0.1, Seed: seed, EpochBase: 48},
		Threads:   1,
		NoOverlap: true,
	}
}

// runWorld drives Algorithm2 as one goroutine per rank over a local world,
// on sts when given (a resumed session) or on fresh states, each passed
// through the per-rank hook first, and reports every rank's outcome.
func runWorld(t *testing.T, w *mpi.World, cfg Config, sts []*kadabra.EstimatorState, perRank func(rank int, st *kadabra.EstimatorState)) ([]*Result, []error) {
	t.Helper()
	procs := w.Size()
	if sts == nil {
		var err error
		if sts, err = NewStates(kadabra.UndirectedWorkload(testGraph()), procs, cfg); err != nil {
			t.Fatal(err)
		}
	}
	results := make([]*Result, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		if perRank != nil {
			perRank(i, sts[i])
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Algorithm2(context.Background(), sts[i], w.Comm(i), cfg)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("world did not terminate: a failure path hangs")
	}
	return results, errs
}

// TestRank0DeathCheckpointRestore is the coordinator-death drill: rank 0
// dies mid-run, which in-run recovery deliberately does not absorb — but
// every rank holds the latest periodic distributed checkpoint, so the job
// restarts from it and still delivers the guarantee. This is the bound the
// docs promise: a rank-0 death costs at most one checkpoint interval.
func TestRank0DeathCheckpointRestore(t *testing.T) {
	g := testGraph()
	const procs = 3
	world := mpi.NewLocalWorld(procs)

	var mu sync.Mutex
	ckpts := make([][][]byte, procs)
	base := faultCfg(5)
	base.CheckpointInterval = 2
	_, errs := runWorld(t, world, base, nil, func(rank int, st *kadabra.EstimatorState) {
		st.SetOnCheckpoint(func(payload []byte) {
			p := append([]byte(nil), payload...)
			mu.Lock()
			ckpts[rank] = append(ckpts[rank], p)
			mu.Unlock()
		})
		if rank == 0 {
			st.SetOnEpoch(func(p kadabra.Progress) {
				if p.Epoch == 5 {
					world.Kill(0)
				}
			})
		}
	})

	for r := 0; r < procs; r++ {
		if errs[r] == nil {
			t.Fatalf("rank %d survived a coordinator death", r)
		}
	}
	for r := 1; r < procs; r++ {
		if !errors.Is(errs[r], ErrCoordinatorLost) {
			t.Errorf("rank %d error does not point at the lost coordinator: %v", r, errs[r])
		}
	}

	// Epochs 2 and 4 were checkpointed before the epoch-5 kill, and every
	// rank must hold identical payloads — that is what makes any survivor
	// a valid restart point.
	for r := 0; r < procs; r++ {
		if len(ckpts[r]) != 2 {
			t.Fatalf("rank %d holds %d checkpoints, want 2", r, len(ckpts[r]))
		}
		if !bytes.Equal(ckpts[r][1], ckpts[0][1]) {
			t.Fatalf("rank %d's checkpoint differs from rank 0's", r)
		}
	}

	// A survivor's copy comes back as world rank 0 of a session of the
	// same shape, and a fresh world around it finishes the job as
	// distributed: phase 2 is behind it, every sample it held is kept.
	w := kadabra.UndirectedWorkload(g)
	st, err := kadabra.RestoreEstimatorState(ckpts[1][1], w)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if st.Procs() != procs || st.Threads() != 1 || !st.Calibrated() || st.Tau() == 0 || st.Epochs() != 4 {
		t.Fatalf("restored state not the epoch-4 capture of a %d-rank session: procs=%d threads=%d calibrated=%v tau=%d epochs=%d",
			procs, st.Procs(), st.Threads(), st.Calibrated(), st.Tau(), st.Epochs())
	}
	held := st.Tau()
	sts, err := NewStates(w, procs, base)
	if err != nil {
		t.Fatal(err)
	}
	sts[0] = st
	results, errs := runWorld(t, mpi.NewLocalWorld(procs), base, sts, nil)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("resumed run, rank %d: %v", r, err)
		}
	}
	res := results[0].Res
	if !res.Converged || res.Tau <= held || res.Timings.Calibration != 0 {
		t.Fatalf("resumed run: converged=%v tau=%d (held %d) calibration=%v; want convergence on top of the held samples without a second phase 2",
			res.Converged, res.Tau, held, res.Timings.Calibration)
	}
	guaranteeCheck(t, g, res, base.Eps)
}

// TestCheckpointConcurrentWithShrink pins the failure-path race the issue
// names: periodic checkpoint writes (every epoch) racing a world shrink.
// Run under -race in CI.
func TestCheckpointConcurrentWithShrink(t *testing.T) {
	g := testGraph()
	const procs = 3
	world := mpi.NewLocalWorld(procs)

	var mu sync.Mutex
	var payloads [][]byte
	base := faultCfg(6)
	base.CheckpointInterval = 1
	results, errs := runWorld(t, world, base, nil, func(rank int, st *kadabra.EstimatorState) {
		st.SetOnCheckpoint(func(payload []byte) {
			p := append([]byte(nil), payload...)
			mu.Lock()
			payloads = append(payloads, p)
			mu.Unlock()
		})
		if rank == 0 {
			st.SetOnEpoch(func(p kadabra.Progress) {
				if p.Epoch == 2 {
					world.Kill(2)
				}
			})
		}
	})

	if errs[2] == nil {
		t.Fatal("killed rank 2 returned no error")
	}
	for r := 0; r < 2; r++ {
		if errs[r] != nil {
			t.Fatalf("survivor rank %d failed: %v", r, errs[r])
		}
	}
	res := results[0]
	if res == nil || res.Res == nil {
		t.Fatal("rank 0 produced no result")
	}
	if res.Stats.RanksLost != 1 || res.Stats.Checkpoints == 0 {
		t.Fatalf("stats = %+v, want 1 rank lost and >0 checkpoints", res.Stats)
	}
	guaranteeCheck(t, g, res.Res, base.Eps)

	// Checkpoints written after the shrink must still restore, as the
	// session the job was started as: the payload records the configured
	// shape, not the shrunken world's.
	mu.Lock()
	last := payloads[len(payloads)-1]
	mu.Unlock()
	st, err := kadabra.RestoreEstimatorState(last, kadabra.UndirectedWorkload(g))
	if err != nil {
		t.Fatalf("restore of post-shrink checkpoint: %v", err)
	}
	if st.Tau() == 0 || st.Procs() != procs {
		t.Fatalf("post-shrink checkpoint: tau=%d procs=%d, want samples and the %d-rank shape", st.Tau(), st.Procs(), procs)
	}
}

// TestAsyncKillTermination races an uncoordinated kill (a timer, not an
// epoch hook) against whatever phase the run happens to be in. The
// contract under test is liveness: no rank may hang, whatever the failure
// interleaving — deaths during calibration are plain errors, deaths in the
// epoch loop recover. Run under -race in CI.
func TestAsyncKillTermination(t *testing.T) {
	for _, delay := range []time.Duration{0, 500 * time.Microsecond, 2 * time.Millisecond, 10 * time.Millisecond} {
		world := mpi.NewLocalWorld(3)
		timer := time.AfterFunc(delay, func() { world.Kill(1) })
		results, errs := runWorld(t, world, faultCfg(8), nil, nil)
		timer.Stop()
		if errs[1] == nil && errs[0] == nil {
			// The run beat the timer; nothing to assert beyond termination.
			continue
		}
		if errs[1] == nil {
			t.Fatalf("delay %v: survivors failed (%v, %v) but the killed rank did not", delay, errs[0], errs[2])
		}
		if errs[0] == nil {
			res := results[0]
			if res == nil || res.Res == nil {
				t.Fatalf("delay %v: rank 0 returned no error and no result", delay)
			}
		}
	}
}
