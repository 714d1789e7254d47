package kadabra_test

import (
	"context"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	. "repro/internal/kadabra"
)

// resultsBitIdentical compares everything except wall-clock timings.
func resultsBitIdentical(t *testing.T, a, b *Result, label string) {
	t.Helper()
	if a.Tau != b.Tau {
		t.Fatalf("%s: tau %d vs %d", label, a.Tau, b.Tau)
	}
	if a.Epochs != b.Epochs {
		t.Fatalf("%s: epochs %d vs %d", label, a.Epochs, b.Epochs)
	}
	if a.Omega != b.Omega || a.VertexDiameter != b.VertexDiameter {
		t.Fatalf("%s: omega/vd differ: %f/%d vs %f/%d",
			label, a.Omega, a.VertexDiameter, b.Omega, b.VertexDiameter)
	}
	if a.AchievedEps != b.AchievedEps {
		t.Fatalf("%s: achieved eps %g vs %g", label, a.AchievedEps, b.AchievedEps)
	}
	if a.Converged != b.Converged {
		t.Fatalf("%s: converged %v vs %v", label, a.Converged, b.Converged)
	}
	for v := range a.Betweenness {
		if a.Betweenness[v] != b.Betweenness[v] {
			t.Fatalf("%s: estimates differ at vertex %d: %g vs %g",
				label, v, a.Betweenness[v], b.Betweenness[v])
		}
	}
}

// TestEstimatorStateBitIdenticalResume is the core checkpoint guarantee: a
// sequential run stopped mid-sampling by a sample budget, checkpointed,
// restored into a fresh state machine, and run to completion produces a
// bit-identical Result to an uninterrupted run — whether the budget stop
// caught the state frame still sparse (a few samples in) or past its
// density cut-over — on R-MAT with the bidirectional BFS and on a lattice
// with the goal kernel, whose restored workload chooses that kernel again.
func TestEstimatorStateBitIdenticalResume(t *testing.T) {
	// A lattice sample bumps a dozen vertices of 256, so its frame stays
	// sparse for the first two samples only.
	checkBitIdenticalResume(t, "", testGraph(), []int64{3, 8})
	checkBitIdenticalResume(t, "lattice-", testLattice(), []int64{1, 2})
}

// checkBitIdenticalResume runs TestEstimatorStateBitIdenticalResume's cuts
// on the undirected workload over g, as subtests named prefix+"sparse" (at
// the sparse cuts) and prefix+"dense".
func checkBitIdenticalResume(t *testing.T, prefix string, g *graph.Graph, sparse []int64) {
	cfg := Config{Eps: 0.03, Delta: 0.1, Seed: 11}
	w := UndirectedWorkload(g)

	full, err := NewEstimatorState(w, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := advance(context.Background(), full, Config{}); err != nil {
		t.Fatal(err)
	}
	want := full.Result()
	if !want.Converged {
		t.Fatal("uninterrupted run did not converge")
	}

	// Interrupt at several points, including mid-calibration and
	// off-check-boundary taus.
	for name, cuts := range map[string][]int64{
		"sparse": sparse,
		"dense":  {50, want.Tau / 3, want.Tau/2 + 137},
	} {
		t.Run(prefix+name, func(t *testing.T) {
			for _, cut := range cuts {
				st, err := NewEstimatorState(w, 1, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := advance(context.Background(), st, Config{MaxSamples: cut}); err != nil {
					t.Fatal(err)
				}
				if st.Tau() != cut {
					t.Fatalf("cut %d: budget stop at tau %d", cut, st.Tau())
				}
				if st.Converged() {
					t.Fatalf("cut %d: converged at the budget stop", cut)
				}
				if st.Frame().Dense() != (name == "dense") {
					t.Fatalf("cut %d: state frame dense=%v in the %s row", cut, st.Frame().Dense(), name)
				}
				ckpt := st.AppendCheckpoint(nil)
				restored, err := RestoreEstimatorState(ckpt, UndirectedWorkload(g))
				if err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				if err := advance(context.Background(), restored, Config{}); err != nil {
					t.Fatal(err)
				}
				resultsBitIdentical(t, want, restored.Result(), prefix+name)
			}
		})
	}
}

// TestEstimatorStateRepeatedRunsIdentical: pausing and resuming through
// many small budgets (without serialization) walks the exact path of one
// uninterrupted run.
func TestEstimatorStateRepeatedRunsIdentical(t *testing.T) {
	g := testGraph()
	cfg := Config{Eps: 0.05, Delta: 0.1, Seed: 3}
	full, err := NewEstimatorState(UndirectedWorkload(g), 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := advance(context.Background(), full, Config{}); err != nil {
		t.Fatal(err)
	}
	want := full.Result()

	st, err := NewEstimatorState(UndirectedWorkload(g), 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(400); !st.Converged(); step += 400 {
		if err := advance(context.Background(), st, Config{MaxSamples: step}); err != nil {
			t.Fatal(err)
		}
	}
	resultsBitIdentical(t, want, st.Result(), "stepped")
}

// TestEstimatorStateShmCheckpointResume: a shared-memory session paused
// mid-calibration by a sample budget (where the overshoot is bounded per
// worker regardless of scheduling — an adaptive-phase epoch's size scales
// with wall time on an oversubscribed box), checkpointed, restored, and
// run to completion grows its sample count and still satisfies the
// guarantee vs Brandes. Bit-identity is a one-thread-only promise — the
// epoch overlap is schedule-dependent.
func TestEstimatorStateShmCheckpointResume(t *testing.T) {
	g := testGraph()
	const eps = 0.02
	const threads = 3
	cfg := Config{Eps: eps, Delta: 0.1, Seed: 9}
	st, err := NewEstimatorState(UndirectedWorkload(g), threads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tau0 := int64(st.Omega())/100 + 1
	pauseAt := tau0 / 2
	if err := advance(context.Background(), st, Config{MaxSamples: pauseAt}); err != nil {
		t.Fatal(err)
	}
	if st.Calibrated() || st.Converged() {
		t.Fatalf("budget %d (< tau0 %d) did not pause mid-calibration", pauseAt, tau0)
	}
	paused := st.Tau()
	if paused < pauseAt || paused > pauseAt+threads {
		t.Fatalf("mid-calibration pause at tau %d, want within [%d, %d]", paused, pauseAt, pauseAt+threads)
	}
	ckpt := st.AppendCheckpoint(nil)

	restored, err := RestoreEstimatorState(ckpt, UndirectedWorkload(g))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Threads() != threads {
		t.Fatalf("restored thread count %d, want %d", restored.Threads(), threads)
	}
	if restored.Tau() != paused {
		t.Fatalf("restored tau %d, want %d", restored.Tau(), paused)
	}
	if err := advance(context.Background(), restored, Config{}); err != nil {
		t.Fatal(err)
	}
	res := restored.Result()
	if res.Tau <= paused {
		t.Fatalf("resumed run did not sample: tau %d vs paused %d", res.Tau, paused)
	}
	if !res.Converged {
		t.Fatal("resumed run did not converge")
	}
	guaranteeCheck(t, g, res, eps)
}

// TestEstimatorStateRecalibrateKeepsSamples: refining to a tighter eps
// strictly grows tau (never resets) and the refined state satisfies the
// tighter guarantee.
func TestEstimatorStateRecalibrateKeepsSamples(t *testing.T) {
	g := testGraph()
	st, err := NewEstimatorState(UndirectedWorkload(g), 1, Config{Eps: 0.1, Delta: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := advance(context.Background(), st, Config{}); err != nil {
		t.Fatal(err)
	}
	coarse := st.Tau()
	if !st.Converged() {
		t.Fatal("coarse run did not converge")
	}
	st.Recalibrate(0.03, 0.1)
	if st.Converged() {
		t.Fatal("recalibration did not reset convergence")
	}
	if st.Tau() != coarse {
		t.Fatalf("recalibration changed tau: %d vs %d", st.Tau(), coarse)
	}
	if err := advance(context.Background(), st, Config{}); err != nil {
		t.Fatal(err)
	}
	res := st.Result()
	if res.Tau <= coarse {
		t.Fatalf("refinement did not grow tau: %d vs %d", res.Tau, coarse)
	}
	if res.AchievedEps > 0.03 {
		t.Fatalf("refined achieved eps %g exceeds target 0.03", res.AchievedEps)
	}
	guaranteeCheck(t, g, res, 0.03)
}

// TestEstimatorStateBudgets: the sample budget stops at exactly the cap
// (one thread), the deadline budget returns promptly, and both
// leave an honest achieved-eps behind.
func TestEstimatorStateBudgets(t *testing.T) {
	g := testGraph()
	st, err := NewEstimatorState(UndirectedWorkload(g), 1, Config{Eps: 0.005, Delta: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := advance(context.Background(), st, Config{MaxSamples: 2000}); err != nil {
		t.Fatal(err)
	}
	if st.Tau() != 2000 {
		t.Fatalf("one-thread sample budget stopped at tau %d, want exactly 2000", st.Tau())
	}
	res := st.Result()
	if res.Converged {
		t.Fatal("budget-stopped run reported convergence")
	}
	if res.AchievedEps <= 0.005 || res.AchievedEps > 1 {
		t.Fatalf("implausible achieved eps %g after 2000 samples at target 0.005", res.AchievedEps)
	}

	begin := time.Now()
	if err := advance(context.Background(), st, Config{MaxDuration: 150 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("deadline-budgeted run took %v", elapsed)
	}
	if st.Tau() <= 2000 {
		t.Fatal("deadline run did not advance the state")
	}
	after := st.Result().AchievedEps
	if after >= res.AchievedEps {
		t.Fatalf("achieved eps did not tighten: %g -> %g", res.AchievedEps, after)
	}
}

// TestRestoreEstimatorStateRejectsGarbage: structural validation of the
// internal payload (the public envelope adds magic + CRC on top).
func TestRestoreEstimatorStateRejectsGarbage(t *testing.T) {
	g := testGraph()
	w := UndirectedWorkload(g)
	st, err := NewEstimatorState(w, 1, Config{Eps: 0.05, Delta: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := advance(context.Background(), st, Config{MaxSamples: 500}); err != nil {
		t.Fatal(err)
	}
	valid := st.AppendCheckpoint(nil)

	if _, err := RestoreEstimatorState(valid, w); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	for _, cut := range []int{0, 1, 2, 7, len(valid) / 2, len(valid) - 1} {
		if _, err := RestoreEstimatorState(valid[:cut], w); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := RestoreEstimatorState(append(valid[:len(valid):len(valid)], 0xFF), w); err == nil {
		t.Error("trailing garbage accepted")
	}
	versionSkew := append([]byte(nil), valid...)
	versionSkew[0] = 0xFE
	if _, err := RestoreEstimatorState(versionSkew, w); err == nil {
		t.Error("version skew accepted")
	}
	// A checkpoint over a different vertex count must not bind.
	smaller, _ := graph.LargestComponent(gen.RMAT(gen.Graph500(7, 8, 17)))
	if _, err := RestoreEstimatorState(valid, UndirectedWorkload(smaller)); err == nil {
		t.Error("vertex-count mismatch accepted")
	}

	// The engine-shape and stopping-rule fields: version u16 | engine u8 |
	// threads u32 | procs u32 | top-k u32, and the stream count u32 further
	// down. Each corruption must be an error — never a panic, never an
	// allocation sized by the corrupt field.
	const engineOff, threadsOff, procsOff, topKOff, nstreamsOff = 2, 3, 7, 11, 86
	if got := binary.LittleEndian.Uint32(valid[nstreamsOff:]); got != 1 {
		t.Fatalf("layout drifted: stream count at offset %d reads %d, want the one thread's 1", nstreamsOff, got)
	}
	dist, err := NewRankState(w, 0, 2, 2, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	validDist := dist.AppendCheckpoint(nil)
	if _, err := RestoreEstimatorState(validDist, w); err != nil {
		t.Fatalf("valid distributed payload rejected: %v", err)
	}
	patch := func(base []byte, off int, v uint32) []byte {
		out := append([]byte(nil), base...)
		binary.LittleEndian.PutUint32(out[off:], v)
		return out
	}
	// A payload of the deleted sequential schedule — engine 0, 0 threads,
	// one stream — restores as the one-thread state, streams and all.
	sequential := patch(valid, threadsOff, 0)
	sequential[engineOff] = EngineSequential
	legacy, err := RestoreEstimatorState(sequential, w)
	if err != nil {
		t.Fatalf("sequential payload rejected: %v", err)
	}
	if legacy.Threads() != 1 || legacy.Procs() != 0 || legacy.Streams()[0].State() != st.Streams()[0].State() {
		t.Fatalf("sequential payload restored as %d threads, %d procs (streams carried: %v)",
			legacy.Threads(), legacy.Procs(), legacy.Streams()[0].State() == st.Streams()[0].State())
	}
	for name, bad := range map[string][]byte{
		"sequential engine with threads":      patch(sequential, threadsOff, 1),
		"sequential engine with processes":    patch(sequential, procsOff, 2),
		"sequential engine, streams absent":   patch(sequential, nstreamsOff, 0),
		"sequential engine, 2^31 streams":     patch(sequential, nstreamsOff, 1<<31),
		"one thread, 2^31 streams":            patch(valid, nstreamsOff, 1<<31),
		"top-k at the vertex count":           patch(valid, topKOff, uint32(w.N())),
		"top-k 2^32-1":                        patch(valid, topKOff, math.MaxUint32),
		"unknown engine":                      append(append([]byte(nil), valid[:engineOff]...), append([]byte{9}, valid[engineOff+1:]...)...),
		"distributed, 0 processes":            patch(validDist, procsOff, 0),
		"distributed, 2^32-1 processes":       patch(validDist, procsOff, math.MaxUint32),
		"distributed, procs x threads 2^15":   patch(patch(validDist, procsOff, 1<<8), threadsOff, 1<<7),
		"distributed, 0 threads":              patch(validDist, threadsOff, 0),
		"distributed, 2^32-1 threads":         patch(validDist, threadsOff, math.MaxUint32),
		"distributed carrying streams":        patch(validDist, nstreamsOff, 4),
		"distributed relabelled shared-mem":   append(append([]byte(nil), validDist[:engineOff]...), append([]byte{EngineSharedMemory}, validDist[engineOff+1:]...)...),
		"shared-memory relabelled sequential": append(append([]byte(nil), validDist[:engineOff]...), append([]byte{EngineSequential}, validDist[engineOff+1:]...)...),
	} {
		if _, err := RestoreEstimatorState(bad, w); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestEpochDriverGoldenParity pins the shared-memory engine on epoch.Driver
// at one thread, where the run is schedule-independent (Eps 0.02, Delta
// 0.1). One thread is KADABRA's sequential run, so the expected values are
// exactly what the deleted sequential schedule returned for the same
// configurations: they were re-pinned to it when that schedule became the
// one-thread shape of this one (before, the one-thread epoch schedule
// checked only after each epoch and ignored the omega cap). The weighted
// rows carry the certified weighted vertex-diameter bound, the lattice
// row (a 16x16 road lattice) the goal-directed kernel.
func TestEpochDriverGoldenParity(t *testing.T) {
	ws := testWorkloads(t)
	for _, c := range []struct {
		workload string
		seed     uint64
		tau      int64
		epochs   int
		btHash   uint64
	}{
		{"undirected", 1, 7075, 8, 0x98dbd56c69f8f9bb},
		{"undirected", 2, 7075, 8, 0x5c4f30bc8239a23f},
		{"undirected", 3, 7495, 9, 0x23cada77cdd7c00b},
		{"directed", 1, 7088, 8, 0x301369ecae501fcc},
		{"directed", 2, 7088, 8, 0x1fe1b916e34b6a58},
		{"directed", 3, 7088, 8, 0xc5a945b6d8166bc0},
		{"weighted", 1, 9100, 10, 0x3419e8a03501fb27},
		{"weighted", 2, 9100, 10, 0x57747ac0036563fd},
		{"weighted", 3, 8100, 9, 0x621b7e33b04cc16e},
		{"lattice", 2, 9100, 10, 0x2cd89ba6a27b407d},
	} {
		res, err := Run(context.Background(), ws[c.workload], 1, Config{Eps: 0.02, Delta: 0.1, Seed: c.seed})
		if err != nil {
			t.Fatalf("%s/seed%d: %v", c.workload, c.seed, err)
		}
		if res.Tau != c.tau || res.Epochs != c.epochs || !res.Converged {
			t.Errorf("%s/seed%d: tau %d/%d epochs %d/%d converged %v",
				c.workload, c.seed, res.Tau, c.tau, res.Epochs, c.epochs, res.Converged)
		}
		if got := floatsHash(res.Betweenness); got != c.btHash {
			t.Errorf("%s/seed%d: Betweenness not bit-identical: hash %#x, want %#x", c.workload, c.seed, got, c.btHash)
		}
	}
}
