package betweenness

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/graph"
)

// --- session basics ----------------------------------------------------------

// TestEstimatorRunMatchesEstimateWorkload: one NewEstimator + Run is
// exactly Estimate (same seed, same backend, same result), and a second
// Run returns the converged result without resampling.
func TestEstimatorRunMatchesEstimateWorkload(t *testing.T) {
	g := testGraph(t)
	opts := []Option{WithEpsilon(0.05), WithSeed(4), WithExecutor(Sequential())}
	want, err := Estimate(context.Background(), Undirected(g), opts...)
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewEstimator(Undirected(g), opts...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Tau != want.Tau || got.Epochs != want.Epochs {
		t.Fatalf("session run differs: tau %d/%d epochs %d/%d", got.Tau, want.Tau, got.Epochs, want.Epochs)
	}
	for v := range want.Estimates {
		if got.Estimates[v] != want.Estimates[v] {
			t.Fatalf("estimate differs at vertex %d", v)
		}
	}
	if !got.Converged {
		t.Error("converged run not marked Converged")
	}
	if got.AchievedEps > 0.05 || got.AchievedEps <= 0 {
		t.Errorf("achieved eps %g outside (0, 0.05]", got.AchievedEps)
	}
	again, err := est.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again.Tau != got.Tau {
		t.Errorf("Run after convergence resampled: tau %d -> %d", got.Tau, again.Tau)
	}
}

// TestEstimatorValidation: the session constructor applies the same guards
// as the front door.
func TestEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(Undirected(nil)); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewEstimator(Workload{}); err == nil {
		t.Error("zero workload accepted")
	}
	g := testGraph(t)
	if _, err := NewEstimator(Undirected(g), WithEpsilon(2)); err == nil {
		t.Error("invalid option accepted")
	}
	if _, err := NewEstimator(Undirected(g), WithTopK(g.NumNodes())); err == nil {
		t.Error("out-of-range top-k accepted")
	}
	path := graph.FromArcs(3, [][2]graph.Node{{0, 1}, {1, 2}})
	if _, err := NewEstimator(Directed(path)); err == nil {
		t.Error("non-strongly-connected digraph accepted")
	}
	if _, err := NewEstimator(Undirected(g), WithExecutor(LocalMPI(0))); err == nil {
		t.Error("LocalMPI(0) accepted")
	}
}

// --- budgets ------------------------------------------------------------------

// TestMaxSamplesBudget: the sample budget stops the run early with an
// honest Result on the steppable backends (exactly at the cap,
// sequentially), and a later Run resumes from the paused state.
func TestMaxSamplesBudget(t *testing.T) {
	g := testGraph(t)
	est, err := NewEstimator(Undirected(g),
		WithEpsilon(0.005), WithSeed(2), WithMaxSamples(2000), WithExecutor(Sequential()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := est.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tau != 2000 {
		t.Fatalf("sequential budget stop at tau %d, want exactly 2000", res.Tau)
	}
	if res.Converged {
		t.Fatal("budget-stopped run marked Converged")
	}
	if res.AchievedEps <= 0.005 || res.AchievedEps > 1 {
		t.Fatalf("achieved eps %g implausible for 2000 samples at target 0.005", res.AchievedEps)
	}
	// Raising the budget resumes the same session: tau strictly grows.
	more, err := est.Refine(context.Background(), WithMaxSamples(4000))
	if err != nil {
		t.Fatal(err)
	}
	if more.Tau != 4000 {
		t.Fatalf("resumed budget stop at tau %d, want 4000", more.Tau)
	}
	if more.AchievedEps >= res.AchievedEps {
		t.Errorf("achieved eps did not tighten: %g -> %g", res.AchievedEps, more.AchievedEps)
	}
	// Refining to a tighter eps with the budget already spent cannot
	// sample, so it must error instead of silently returning unchanged.
	if _, err := est.Refine(context.Background(), WithEpsilon(0.001)); err == nil {
		t.Error("Refine with an exhausted sample budget succeeded as a no-op")
	}
}

// TestMaxDurationAllBackends is the acceptance matrix: WithMaxDuration
// returns within budget (plus scheduling slack) with Result.AchievedEps
// reported, on the sequential, shared-memory, LocalMPI, and 2-rank TCP
// backends. The instance and eps are sized so an unbudgeted run would take
// far longer than the budget.
func TestMaxDurationAllBackends(t *testing.T) {
	g := testGraph(t)
	const budget = 400 * time.Millisecond
	check := func(t *testing.T, res *Result, elapsed time.Duration) {
		t.Helper()
		if elapsed > 30*time.Second {
			t.Fatalf("budgeted run took %v", elapsed)
		}
		if res.Converged {
			t.Skip("instance converged inside the budget on this machine")
		}
		if res.AchievedEps <= 0 || res.AchievedEps > 1 {
			t.Fatalf("achieved eps %g outside (0, 1]", res.AchievedEps)
		}
		if res.Estimates == nil || res.Tau == 0 {
			t.Fatal("budget-stopped run carried no state")
		}
	}
	opts := func(extra ...Option) []Option {
		return append([]Option{
			WithEpsilon(0.0005), WithSeed(11), WithThreads(2),
			WithMaxDuration(budget), WithVertexDiameter(9),
		}, extra...)
	}
	t.Run("sequential", func(t *testing.T) {
		start := time.Now()
		res, err := Estimate(context.Background(), Undirected(g), opts(WithExecutor(Sequential()))...)
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, time.Since(start))
	})
	t.Run("shared-memory", func(t *testing.T) {
		start := time.Now()
		res, err := Estimate(context.Background(), Undirected(g), opts(WithExecutor(SharedMemory()))...)
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, time.Since(start))
	})
	t.Run("local-mpi", func(t *testing.T) {
		start := time.Now()
		res, err := Estimate(context.Background(), Undirected(g), opts(WithExecutor(LocalMPI(2)))...)
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, time.Since(start))
	})
	t.Run("tcp-2rank", func(t *testing.T) {
		addrs := tcpWorld(t, 2)
		start := time.Now()
		results := make([]*Result, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for rank := 0; rank < 2; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				results[rank], errs[rank] = Estimate(context.Background(), Undirected(g),
					opts(WithExecutor(TCP(rank, addrs)))...)
			}(rank)
		}
		wg.Wait()
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", rank, err)
			}
		}
		check(t, results[0], time.Since(start))
	})
}

// --- refine -------------------------------------------------------------------

// TestRefineParityBattery is the acceptance battery: on all three
// workloads, Refine from eps=0.05 to eps=0.01 strictly grows the sample
// count (never resets) and the refined result passes the same
// parity-vs-Brandes check as a fresh run at the tighter eps — on both
// steppable backends.
func TestRefineParityBattery(t *testing.T) {
	const coarse, fine = 0.05, 0.01
	dg := sccCoreWithDAGFringe(30, 20)
	wg := weightedGrid(t, 6, 6, 4)
	ug := testGraph(t)
	cases := []struct {
		name  string
		w     Workload
		exact []float64
	}{
		{"undirected", Undirected(ug), Exact(ug, 0)},
		{"directed", Directed(dg), ExactDirected(dg, 0)},
		{"weighted", Weighted(wg), ExactWeighted(wg, 0)},
	}
	for _, tc := range cases {
		for _, exec := range []Executor{Sequential(), SharedMemory()} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, exec.Name()), func(t *testing.T) {
				est, err := NewEstimator(tc.w,
					WithEpsilon(coarse), WithSeed(7), WithThreads(2), WithExecutor(exec))
				if err != nil {
					t.Fatal(err)
				}
				first, err := est.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if !first.Converged {
					t.Fatal("coarse run did not converge")
				}
				if rep := Compare(tc.exact, first.Estimates, coarse); rep.MaxAbs > coarse {
					t.Fatalf("coarse run off by %.4f > %g", rep.MaxAbs, coarse)
				}
				refined, err := est.Refine(context.Background(), WithEpsilon(fine))
				if err != nil {
					t.Fatal(err)
				}
				if refined.Tau < first.Tau {
					t.Fatalf("refine reset the sample count: %d -> %d", first.Tau, refined.Tau)
				}
				// The sequential engine converges near-minimally, so a 5x
				// tighter eps always needs more samples. A shared-memory
				// epoch on an oversubscribed box can overshoot far enough
				// that the fine target is already met — growth is then
				// legitimately zero, but never negative (asserted above).
				if exec.Name() == "sequential" && refined.Tau == first.Tau {
					t.Fatalf("refine did not grow the sample count: %d", refined.Tau)
				}
				if !refined.Converged {
					t.Fatal("refined run did not converge")
				}
				if refined.AchievedEps > fine {
					t.Errorf("refined achieved eps %g exceeds target %g", refined.AchievedEps, fine)
				}
				if rep := Compare(tc.exact, refined.Estimates, fine); rep.MaxAbs > fine {
					t.Errorf("refined run off by %.4f > %g (tau=%d)", rep.MaxAbs, fine, refined.Tau)
				}
			})
		}
	}

	// The certified top-k rule is refinable like any other session:
	// re-targeting k keeps every sample and resumes until the larger top
	// set is certified (or eps-resolved), with bounds that bracket Brandes.
	t.Run("certified-top-k", func(t *testing.T) {
		exact := cases[0].exact
		est, err := NewEstimator(cases[0].w,
			WithEpsilon(fine), WithSeed(7), WithTopK(1), WithExecutor(Sequential()))
		if err != nil {
			t.Fatal(err)
		}
		first, err := est.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !first.Converged || !first.Separated || first.Top[0] != TopKOf(exact, 1)[0] {
			t.Fatalf("top-1 run: converged %v separated %v top %v", first.Converged, first.Separated, first.Top)
		}
		refined, err := est.Refine(context.Background(), WithTopK(8))
		if err != nil {
			t.Fatal(err)
		}
		if refined.Tau <= first.Tau {
			t.Fatalf("re-targeting k=1 -> k=8 did not grow the sample count: %d -> %d", first.Tau, refined.Tau)
		}
		if !refined.Converged || len(refined.Top) != 8 {
			t.Fatalf("top-8 refine: converged %v top %v", refined.Converged, refined.Top)
		}
		for v, b := range exact {
			if b < refined.Lower[v]-1e-9 || b > refined.Upper[v]+1e-9 {
				t.Fatalf("vertex %d: exact %f outside [%f, %f]", v, b, refined.Lower[v], refined.Upper[v])
			}
		}
	})
}

// TestRefineGuards: options that would change the session's statistical
// identity are rejected; a larger top-k alone is served from the
// accumulated state.
func TestRefineGuards(t *testing.T) {
	g := testGraph(t)
	est, err := NewEstimator(Undirected(g),
		WithEpsilon(0.05), WithSeed(3), WithTopK(2), WithThreads(2),
		WithExecutor(SharedMemory()))
	if err != nil {
		t.Fatal(err)
	}
	first, err := est.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Top) != 2 {
		t.Fatalf("top-2 has %d entries", len(first.Top))
	}
	for name, opt := range map[string]Option{
		"seed":     WithSeed(99),
		"threads":  WithThreads(7),
		"executor": WithExecutor(Sequential()),
		"vd":       WithVertexDiameter(50),
	} {
		if _, err := est.Refine(context.Background(), opt); err == nil {
			t.Errorf("Refine accepted a %s change", name)
		}
	}
	bigger, err := est.Refine(context.Background(), WithTopK(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(bigger.Top) != 5 {
		t.Fatalf("refined top-5 has %d entries", len(bigger.Top))
	}
	if bigger.Tau != first.Tau {
		t.Errorf("top-k-only refine resampled: tau %d -> %d", first.Tau, bigger.Tau)
	}

	// The stopping rule is chosen when the session is built: WithTopK on a
	// Refine of a uniform Sequential session ranks, it does not certify.
	seq, err := NewEstimator(Undirected(g), WithEpsilon(0.05), WithSeed(3), WithExecutor(Sequential()))
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := seq.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := seq.Refine(context.Background(), WithTopK(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked.Top) != 3 || ranked.Lower != nil || ranked.Tau != uniform.Tau || !ranked.Converged {
		t.Fatalf("top-k refine of a uniform seq session: top %v bounds=%v tau %d -> %d converged=%v",
			ranked.Top, ranked.Lower != nil, uniform.Tau, ranked.Tau, ranked.Converged)
	}
}

// --- snapshot -----------------------------------------------------------------

// TestSnapshotAndProgressShareOneType: WithProgress deliveries carry the
// achieved eps and throughput, Estimator.Snapshot between runs additionally
// materializes the estimates, and both tighten monotonically enough to be
// honest.
func TestSnapshotAndProgressShareOneType(t *testing.T) {
	g := testGraph(t)
	var snaps []Snapshot
	est, err := NewEstimator(Undirected(g),
		WithEpsilon(0.02), WithSeed(5), WithExecutor(Sequential()),
		WithProgress(func(s Snapshot) { snaps = append(snaps, s) }))
	if err != nil {
		t.Fatal(err)
	}
	pre := est.Snapshot()
	if pre.Tau != 0 || pre.AchievedEps != 1 {
		t.Fatalf("fresh session snapshot: tau=%d achieved=%g, want 0 and 1", pre.Tau, pre.AchievedEps)
	}
	res, err := est.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	for i, s := range snaps {
		if s.AchievedEps <= 0 || s.AchievedEps > 1 {
			t.Fatalf("snapshot %d: achieved eps %g outside (0, 1]", i, s.AchievedEps)
		}
		if s.SamplesPerSec <= 0 {
			t.Fatalf("snapshot %d: samples/sec %g not positive", i, s.SamplesPerSec)
		}
		if s.Estimates != nil {
			t.Fatalf("snapshot %d: progress delivery materialized estimates", i)
		}
		if i > 0 && (s.Epoch <= snaps[i-1].Epoch || s.Tau < snaps[i-1].Tau) {
			t.Fatalf("snapshots not monotone: %+v -> %+v", snaps[i-1], s)
		}
	}
	final := snaps[len(snaps)-1]
	if final.AchievedEps > 0.02 {
		t.Errorf("final progress achieved eps %g exceeds target", final.AchievedEps)
	}
	idle := est.Snapshot()
	if idle.Tau != res.Tau {
		t.Errorf("idle snapshot tau %d, result tau %d", idle.Tau, res.Tau)
	}
	if idle.AchievedEps != res.AchievedEps {
		t.Errorf("idle snapshot achieved %g, result %g", idle.AchievedEps, res.AchievedEps)
	}
	if len(idle.Estimates) != g.NumNodes() {
		t.Fatalf("idle snapshot has %d estimates, want %d", len(idle.Estimates), g.NumNodes())
	}
	for v := range res.Estimates {
		if idle.Estimates[v] != res.Estimates[v] {
			t.Fatalf("idle snapshot estimate differs at vertex %d", v)
		}
	}
}

// --- checkpoint / restore -----------------------------------------------------

// TestCheckpointRestoreResume is the public half of the acceptance
// criterion: a sequential run interrupted mid-sampling via checkpoint,
// restored into a fresh Estimator (fresh state machine, as a fresh process
// would build), and resumed produces a bit-identical Result to the
// uninterrupted run — under the uniform stopping rule and under the
// certified top-k rule, which the checkpoint records: the restorer passes
// no WithTopK.
func TestCheckpointRestoreResume(t *testing.T) {
	g := testGraph(t)
	for name, rule := range map[string][]Option{
		"uniform":         nil,
		"certified-top-k": {WithTopK(1)},
	} {
		t.Run(name, func(t *testing.T) {
			opts := append([]Option{WithEpsilon(0.02), WithSeed(8), WithExecutor(Sequential())}, rule...)

			want, err := Estimate(context.Background(), Undirected(g), opts...)
			if err != nil {
				t.Fatal(err)
			}

			est, err := NewEstimator(Undirected(g), append(opts, WithMaxSamples(want.Tau/2+31))...)
			if err != nil {
				t.Fatal(err)
			}
			paused, err := est.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if paused.Converged {
				t.Fatal("interrupted run converged; lower the cut")
			}
			if !est.Checkpointable() {
				t.Fatal("sequential session not checkpointable")
			}
			var buf bytes.Buffer
			if err := est.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}

			restored, err := RestoreEstimator(bytes.NewReader(buf.Bytes()), Undirected(g))
			if err != nil {
				t.Fatal(err)
			}
			if snap := restored.Snapshot(); snap.Tau != paused.Tau {
				t.Fatalf("restored snapshot tau=%d, want %d", snap.Tau, paused.Tau)
			}
			got, err := restored.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got.Tau != want.Tau || got.Epochs != want.Epochs {
				t.Fatalf("resumed run differs: tau %d/%d epochs %d/%d", got.Tau, want.Tau, got.Epochs, want.Epochs)
			}
			if got.AchievedEps != want.AchievedEps || got.Omega != want.Omega {
				t.Fatalf("resumed guarantee differs: achieved %g/%g omega %g/%g",
					got.AchievedEps, want.AchievedEps, got.Omega, want.Omega)
			}
			for v := range want.Estimates {
				if got.Estimates[v] != want.Estimates[v] {
					t.Fatalf("resumed estimate differs at vertex %d: %g vs %g",
						v, got.Estimates[v], want.Estimates[v])
				}
			}
			if !got.Converged {
				t.Fatal("resumed run did not converge")
			}
			if !reflect.DeepEqual(got.Top, want.Top) || got.Separated != want.Separated ||
				!reflect.DeepEqual(got.Lower, want.Lower) || !reflect.DeepEqual(got.Upper, want.Upper) {
				t.Fatalf("resumed ranking differs: top %v/%v separated %v/%v",
					got.Top, want.Top, got.Separated, want.Separated)
			}
			if (got.Lower != nil) != (rule != nil) {
				t.Fatalf("confidence bounds present=%v under rule %s", got.Lower != nil, name)
			}

			// The converged checkpoint comes back under the rule it recorded
			// and stays put — a certified stop (far short of the uniform eps)
			// is still a certified stop, not a uniform guarantee it never
			// earned — and WithTopK on the restore only ranks: it cannot
			// swap a uniform session's rule.
			buf.Reset()
			if err := restored.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			again, err := RestoreEstimator(bytes.NewReader(buf.Bytes()), Undirected(g), WithTopK(3))
			if err != nil {
				t.Fatal(err)
			}
			fin, err := again.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !fin.Converged || fin.Tau != got.Tau || fin.AchievedEps != got.AchievedEps {
				t.Fatalf("converged checkpoint restored as converged=%v tau %d (was %d) achieved eps %g (was %g)",
					fin.Converged, fin.Tau, got.Tau, fin.AchievedEps, got.AchievedEps)
			}
			if (fin.Lower != nil) != (rule != nil) {
				t.Fatalf("restored with WithTopK(3): confidence bounds present=%v under recorded rule %s", fin.Lower != nil, name)
			}
			if wantTop := map[bool]int{true: 1, false: 3}[rule != nil]; len(fin.Top) != wantTop {
				t.Fatalf("restored with WithTopK(3) under rule %s: ranked %d vertices, want %d", name, len(fin.Top), wantTop)
			}
		})
	}
}

// TestRestoreV1Checkpoint: the committed checkpoint written before the
// format recorded engine shape and stopping rule (engine payload v1 in BCSE
// envelope v1; see internal/kadabra.TestRestoreV1Payload for its
// provenance) still restores and finishes bit-identically to the session
// never having stopped — and, as such payloads always did, takes its rule
// from the restorer.
func TestRestoreV1Checkpoint(t *testing.T) {
	data, err := os.ReadFile("testdata/v1_seq_undirected.bck")
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := graph.LargestComponent(graph.RMAT(graph.Graph500(8, 8, 17)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Estimate(context.Background(), Undirected(g),
		WithEpsilon(0.03), WithDelta(0.1), WithSeed(11), WithExecutor(Sequential()))
	if err != nil {
		t.Fatal(err)
	}
	est, err := RestoreEstimator(bytes.NewReader(data), Undirected(g))
	if err != nil {
		t.Fatalf("restoring the version-1 checkpoint: %v", err)
	}
	if snap := est.Snapshot(); snap.Tau != want.Tau/3 {
		t.Fatalf("v1 checkpoint holds tau %d, want the budget stop at %d", snap.Tau, want.Tau/3)
	}
	got, err := est.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Backend != "sequential" || got.Tau != want.Tau || got.Epochs != want.Epochs ||
		got.AchievedEps != want.AchievedEps || !reflect.DeepEqual(got.Estimates, want.Estimates) {
		t.Fatalf("v1 resume on %s differs from the uninterrupted run: tau %d/%d epochs %d/%d achieved %g/%g",
			got.Backend, got.Tau, want.Tau, got.Epochs, want.Epochs, got.AchievedEps, want.AchievedEps)
	}

	certified, err := RestoreEstimator(bytes.NewReader(data), Undirected(g), WithTopK(1))
	if err != nil {
		t.Fatal(err)
	}
	cres, err := certified.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cres.Lower == nil || len(cres.Top) != 1 {
		t.Fatalf("v1 checkpoint restored with WithTopK(1): bounds=%v top=%v, want the certified rule", cres.Lower != nil, cres.Top)
	}
}

// TestCheckpointRestoreRejectsMismatches: wrong workload kind, wrong graph
// size, and corrupted envelopes fail loudly.
func TestCheckpointRestoreRejectsMismatches(t *testing.T) {
	g := testGraph(t)
	est, err := NewEstimator(Undirected(g),
		WithEpsilon(0.05), WithSeed(1), WithMaxSamples(500), WithExecutor(Sequential()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := est.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	if _, err := RestoreEstimator(bytes.NewReader(valid), Directed(directedCycle(g.NumNodes()))); err == nil {
		t.Error("workload-kind mismatch accepted")
	}
	sub, _, err := graph.LargestComponent(graph.RMAT(graph.Graph500(7, 8, 17)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreEstimator(bytes.NewReader(valid), Undirected(sub)); err == nil {
		t.Error("graph-size mismatch accepted")
	}
	for _, cut := range []int{0, 3, 8, len(valid) / 2, len(valid) - 1} {
		if _, err := RestoreEstimator(bytes.NewReader(valid[:cut]), Undirected(g)); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	if _, err := RestoreEstimator(bytes.NewReader(flipped), Undirected(g)); err == nil {
		t.Error("bit flip accepted (CRC should catch it)")
	}
}

// TestEveryBackendCheckpointableAndRefinable: every backend's session owns
// its state — it checkpoints, accepts a capture request, and refines in
// place — and so does a certified top-k session.
func TestEveryBackendCheckpointableAndRefinable(t *testing.T) {
	g := testGraph(t)
	for _, exec := range allBackends() {
		est, err := NewEstimator(Undirected(g), WithEpsilon(0.05), WithThreads(2), WithExecutor(exec))
		if err != nil {
			t.Fatal(err)
		}
		if !est.Checkpointable() {
			t.Errorf("%s session claims not to be checkpointable", exec.Name())
		}
		est.RequestCheckpoint()
		if err := est.Checkpoint(&bytes.Buffer{}); err != nil {
			t.Errorf("Checkpoint on %s returned %v", exec.Name(), err)
		}
		if exec.Name() == "tcp" {
			continue // a one-rank "world" of one unroutable host: nothing to run
		}
		if res, err := est.Refine(context.Background(), WithEpsilon(0.04)); err != nil || !res.Converged {
			t.Errorf("Refine on %s: result %+v, err %v", exec.Name(), res, err)
		}
	}

	// Certified top-k on the sequential backend is an ordinary session.
	cert, err := NewEstimator(Undirected(g), WithEpsilon(0.05), WithTopK(3), WithExecutor(Sequential()))
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.Checkpoint(&bytes.Buffer{}); err != nil {
		t.Errorf("certified top-k Checkpoint returned %v", err)
	}
	if res, err := cert.Refine(context.Background(), WithEpsilon(0.04)); err != nil || res.Lower == nil {
		t.Errorf("certified top-k Refine: result %v, err %v", res, err)
	}
	if snap := cert.Snapshot(); snap.Estimates == nil {
		t.Errorf("certified top-k snapshot carries no estimates: %+v", snap)
	}
}

// TestEstimatorCancelKeepsState: a cancelled Run returns ctx.Err() but the
// session keeps its samples; the next Run completes from them.
func TestEstimatorCancelKeepsState(t *testing.T) {
	g := testGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	est, err := NewEstimator(Undirected(g),
		WithEpsilon(0.01), WithSeed(6), WithExecutor(Sequential()),
		WithProgress(func(Snapshot) { once.Do(cancel) }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	snap := est.Snapshot()
	if snap.Tau == 0 {
		t.Fatal("cancelled run discarded its samples")
	}
	res, err := est.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Tau < snap.Tau {
		t.Fatalf("post-cancel run broken: converged=%v tau %d (was %d)", res.Converged, res.Tau, snap.Tau)
	}
}

// --- fuzz ---------------------------------------------------------------------

// FuzzRestoreEstimator: arbitrary checkpoint bytes must never panic —
// truncated, bit-flipped, or version-skewed inputs return errors; inputs
// that parse (i.e. a valid checkpoint) restore to a runnable session.
func FuzzRestoreEstimator(f *testing.F) {
	g, _, err := graph.LargestComponent(graph.RMAT(graph.Graph500(6, 8, 17)))
	if err != nil {
		f.Fatal(err)
	}
	seedCheckpoint := func(opts ...Option) []byte {
		est, err := NewEstimator(Undirected(g),
			append([]Option{WithEpsilon(0.05), WithSeed(1), WithExecutor(Sequential())}, opts...)...)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := est.Run(context.Background()); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := est.Checkpoint(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	full := seedCheckpoint()
	partial := seedCheckpoint(WithMaxSamples(200))
	f.Add(full)
	f.Add(partial)
	f.Add(full[:len(full)/2])
	f.Add([]byte("BCSE"))
	f.Add([]byte{})
	skew := append([]byte(nil), full...)
	skew[4] = 0xFF
	f.Add(skew)

	// One seed per payload shape the decoder knows. Version 1 (the engine
	// payload without its procs and top-k fields, streams always carried)
	// is partial re-laid-out, plus the committed parent-written file, which
	// is over another graph and must be refused on its vertex count.
	v1 := append([]byte(nil), partial[:ckptHeaderLen]...)
	v1 = append(v1, 1, 0)                                        // payload version
	v1 = append(v1, partial[ckptHeaderLen+2:ckptHeaderLen+7]...) // engine, threads
	v1 = append(v1, partial[ckptHeaderLen+15:len(partial)-4]...) // the rest, less procs and top-k
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1))
	if est, err := RestoreEstimator(bytes.NewReader(v1), Undirected(g)); err != nil || est.Snapshot().Tau != 200 {
		f.Fatalf("the version-1 seed does not restore: %v", err)
	}
	f.Add(v1)
	committed, err := os.ReadFile("testdata/v1_seq_undirected.bck")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	// Version 2: sequential is `full` and `partial` above; a shared-memory
	// capture taken mid-run (streams absent) and a distributed session.
	var shmInRun []byte
	shm, err := NewEstimator(Undirected(g), WithEpsilon(0.01), WithSeed(1), WithThreads(2), WithExecutor(SharedMemory()))
	if err != nil {
		f.Fatal(err)
	}
	shm.SetCheckpointSink(func(p []byte) { shmInRun = append([]byte(nil), p...) })
	shm.RequestCheckpoint()
	if _, err := shm.Run(context.Background()); err != nil || shmInRun == nil {
		f.Fatalf("no in-run shared-memory capture (err %v)", err)
	}
	f.Add(shmInRun)
	dist, err := NewEstimator(Undirected(g), WithEpsilon(0.05), WithSeed(1), WithMaxSamples(200), WithExecutor(LocalMPI(2)))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := dist.Run(context.Background()); err != nil {
		f.Fatal(err)
	}
	var distCkpt bytes.Buffer
	if err := dist.Checkpoint(&distCkpt); err != nil {
		f.Fatal(err)
	}
	f.Add(distCkpt.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		// Budget the resume: a CRC-colliding mutation could otherwise
		// smuggle in a huge omega and stall the fuzzer.
		est, err := RestoreEstimator(bytes.NewReader(data), Undirected(g),
			WithMaxSamples(2000), WithMaxDuration(2*time.Second))
		if err != nil {
			return // rejected, as most mutations must be
		}
		res, err := est.Run(context.Background())
		if err != nil {
			t.Fatalf("restored session failed to run: %v", err)
		}
		if len(res.Estimates) != g.NumNodes() {
			t.Fatalf("restored session produced %d estimates for %d vertices",
				len(res.Estimates), g.NumNodes())
		}
	})
}
