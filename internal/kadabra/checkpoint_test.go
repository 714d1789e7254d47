package kadabra

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"os"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestInRunCheckpointRoundtrip exercises the one serializer on the payload
// an engine cannot carry its RNG streams in: a shared-memory session
// captured mid-run, while its workers are drawing from them. The capture
// must mark the streams absent, pass RestoreEstimatorState's full
// validation, reproduce the consistent state field for field, come back on
// the shared-memory engine with its thread count, and run on to the
// (eps, delta) guarantee on streams re-derived from (seed, tau, worker).
func TestInRunCheckpointRoundtrip(t *testing.T) {
	const threads = 3
	// The captured state frame is serialized on whichever path it is on and
	// must come back on the same one: the ~200-vertex graph's is dense after
	// its first default epoch, and on the 2^13-vertex one (cut-over 712) the
	// first minimum-length epoch ends some tens of samples in, so it is still
	// sparse unless the coordinator was descheduled for milliseconds while
	// the workers kept drawing — which is why only the dense row is asserted.
	big, _ := graph.LargestComponent(gen.RMAT(gen.Graph500(13, 8, 17)))
	for _, tc := range []struct {
		name      string
		g         *graph.Graph
		eps, base float64
		dense     bool
	}{
		{"sparse", big, 0.1, 16, false},
		{"dense", testGraph(), 0.03, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			cfg := Config{Eps: tc.eps, Delta: 0.1, Seed: 17, EpochBase: tc.base}
			w := UndirectedWorkload(g)
			want, err := Run(context.Background(), w, 0, cfg)
			if err != nil || !want.Converged {
				t.Fatalf("reference run: %v (converged %v)", err, want != nil && want.Converged)
			}

			src, err := NewEstimatorState(w, threads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The sink runs on the coordinating goroutine at an epoch
			// boundary, so it may read the state it was captured from.
			var blob []byte
			var counts []int64
			var tau int64
			var epochs int
			var dense bool
			var deltaL, deltaU []float64
			src.SetOnCheckpoint(func(payload []byte) {
				if blob != nil {
					return
				}
				blob = append([]byte(nil), payload...)
				counts = append([]int64(nil), src.s.C...)
				tau, epochs, dense = src.Tau(), src.Epochs(), src.s.Dense()
				deltaL = append([]float64(nil), src.cal.DeltaL...)
				deltaU = append([]float64(nil), src.cal.DeltaU...)
			})
			src.RequestCheckpoint()
			if err := src.Run(context.Background(), Budget{}); err != nil {
				t.Fatal(err)
			}
			if blob == nil {
				t.Skip("the run converged on its calibration batch: no epoch boundary to capture at")
			}

			restored, err := RestoreEstimatorState(blob, UndirectedWorkload(g))
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if restored.Threads() != threads || restored.Procs() != 0 {
				t.Errorf("restored as %d threads, %d procs; want the shared-memory engine with %d threads",
					restored.Threads(), restored.Procs(), threads)
			}
			if len(restored.streams) != threads {
				t.Fatalf("restored %d streams, want %d re-derived ones", len(restored.streams), threads)
			}
			for i, r := range restored.streams {
				for j := range i {
					if r.State() == restored.streams[j].State() {
						t.Fatalf("re-derived streams %d and %d coincide", i, j)
					}
				}
			}
			if restored.s.Dense() != dense || (tc.dense && !dense) {
				t.Fatalf("state frame captured dense=%v, restored dense=%v", dense, restored.s.Dense())
			}
			if restored.Tau() != tau || restored.Epochs() != epochs {
				t.Errorf("restored tau/epochs %d/%d, want %d/%d", restored.Tau(), restored.Epochs(), tau, epochs)
			}
			if !restored.Calibrated() || !restored.RuleRecorded() {
				t.Errorf("restored calibrated=%v ruleRecorded=%v", restored.Calibrated(), restored.RuleRecorded())
			}
			if restored.vd != src.vd || restored.omega != src.omega {
				t.Errorf("restored vd/omega %d/%f, want %d/%f", restored.vd, restored.omega, src.vd, src.omega)
			}
			for v := range counts {
				if restored.s.C[v] != counts[v] {
					t.Fatalf("restored count differs at vertex %d: %d vs %d", v, restored.s.C[v], counts[v])
				}
			}
			for i := range deltaL {
				if restored.cal.DeltaL[i] != deltaL[i] || restored.cal.DeltaU[i] != deltaU[i] {
					t.Fatalf("calibration tables differ at vertex %d", i)
				}
			}

			// Fresh streams: resumption is statistically equivalent, not
			// bit-exact; it must converge and agree with the uninterrupted
			// run within the two guarantees.
			if err := restored.Run(context.Background(), Budget{}); err != nil {
				t.Fatal(err)
			}
			res := restored.Result()
			if !res.Converged || res.AchievedEps > cfg.Eps {
				t.Fatalf("resumed session: converged %v, achieved eps %f (want <= %f)", res.Converged, res.AchievedEps, cfg.Eps)
			}
			if res.Tau < tau {
				t.Errorf("resumed tau %d fell below the captured %d", res.Tau, tau)
			}
			worst := 0.0
			for v := range want.Betweenness {
				worst = math.Max(worst, math.Abs(want.Betweenness[v]-res.Betweenness[v]))
			}
			if worst > 2*cfg.Eps {
				t.Errorf("resumed estimates diverge by %f, want <= %f", worst, 2*cfg.Eps)
			}
		})
	}
}

// TestCheckpointRecordsEngineShape: every engine's payload brings back the
// engine that wrote it. Between runs the single-process engines carry their
// streams (restored exactly); a distributed session's rank-0 state never
// does, and records procs x threads.
func TestCheckpointRecordsEngineShape(t *testing.T) {
	g := testGraph()
	cfg := Config{Eps: 0.05, Delta: 0.1, Seed: 4, TopK: 2}
	build := func(procs, threads int) *EstimatorState {
		t.Helper()
		var st *EstimatorState
		var err error
		if procs > 0 {
			st, err = NewRankState(UndirectedWorkload(g), 0, procs, threads, cfg)
		} else {
			st, err = NewEstimatorState(UndirectedWorkload(g), threads, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, shape := range []struct{ procs, threads int }{{0, 0}, {0, 4}, {3, 2}} {
		src := build(shape.procs, shape.threads)
		got, err := RestoreEstimatorState(src.AppendCheckpoint(nil), UndirectedWorkload(g))
		if err != nil {
			t.Fatalf("%+v: %v", shape, err)
		}
		if got.Procs() != shape.procs || got.Threads() != shape.threads || got.Rank() != 0 {
			t.Errorf("%+v restored as procs %d threads %d rank %d", shape, got.Procs(), got.Threads(), got.Rank())
		}
		if got.Config().TopK != cfg.TopK || !got.RuleRecorded() {
			t.Errorf("%+v: restored rule k=%d recorded=%v, want k=%d", shape, got.Config().TopK, got.RuleRecorded(), cfg.TopK)
		}
		for i, r := range got.streams {
			// Fresh distributed streams are rekey(0) on both sides, so all
			// three shapes compare equal here.
			if r.State() != src.streams[i].State() {
				t.Errorf("%+v: stream %d not restored", shape, i)
			}
		}
	}
	if _, err := NewRankState(UndirectedWorkload(g), 2, 2, 1, cfg); err == nil {
		t.Error("rank 2 of 2 accepted")
	}
	if _, err := NewRankState(UndirectedWorkload(g), 0, 2, 0, cfg); err == nil {
		t.Error("a rank with 0 threads accepted")
	}
}

// v1Payload returns the engine payload of the committed version-1
// checkpoint: a sequential session over testGraph() with Eps 0.03, Delta
// 0.1, Seed 11, budget-stopped at a third of its samples, written by
// betweenness.Estimator.Checkpoint at commit 94fc3db (before the format
// gained its engine-shape and stopping-rule fields).
func v1Payload(t *testing.T) []byte {
	t.Helper()
	env, err := os.ReadFile("../../betweenness/testdata/v1_seq_undirected.bck")
	if err != nil {
		t.Fatal(err)
	}
	return env[8 : len(env)-4] // strip the BCSE header and the CRC
}

// TestRestoreV1Payload: a checkpoint written before this format version
// still restores, and finishes bit-identically to the same session never
// having stopped — TestEstimatorStateBitIdenticalResume's expectation,
// across the version boundary.
func TestRestoreV1Payload(t *testing.T) {
	g := testGraph()
	want, err := Run(context.Background(), UndirectedWorkload(g), 0, Config{Eps: 0.03, Delta: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	payload := v1Payload(t)
	if v := binary.LittleEndian.Uint16(payload); v != 1 {
		t.Fatalf("testdata is a version-%d payload, want 1", v)
	}
	st, err := RestoreEstimatorState(payload, UndirectedWorkload(g))
	if err != nil {
		t.Fatalf("restoring the version-1 payload: %v", err)
	}
	if st.Threads() != 0 || st.Procs() != 0 || st.RuleRecorded() || st.Config().TopK != 0 {
		t.Fatalf("v1 payload restored as threads %d procs %d ruleRecorded %v k %d",
			st.Threads(), st.Procs(), st.RuleRecorded(), st.Config().TopK)
	}
	if st.Tau() != want.Tau/3 || st.Converged() {
		t.Fatalf("v1 payload holds tau %d (converged %v), want the budget stop at %d", st.Tau(), st.Converged(), want.Tau/3)
	}
	if err := st.Run(context.Background(), Budget{}); err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, want, st.Result(), "v1 resume")

	// Re-serialized, the session is a version-2 payload, and resumes just
	// the same.
	again, err := RestoreEstimatorState(st.AppendCheckpoint(nil), UndirectedWorkload(g))
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, want, again.Result(), "v1 -> v2")
}

// TestV2PayloadUnderV1LayoutRejected: the version field is what tells the
// two layouts apart, so a version-2 payload relabelled as version 1 — what
// a reader of the old field order would make of it — must fail validation
// rather than come back as some other session.
func TestV2PayloadUnderV1LayoutRejected(t *testing.T) {
	g := testGraph()
	for _, shape := range []struct{ procs, threads int }{{0, 0}, {0, 2}, {2, 2}} {
		var st *EstimatorState
		var err error
		if shape.procs > 0 {
			st, err = NewRankState(UndirectedWorkload(g), 0, shape.procs, shape.threads, Config{Seed: 9})
		} else {
			st, err = NewEstimatorState(UndirectedWorkload(g), shape.threads, Config{Seed: 9})
		}
		if err != nil {
			t.Fatal(err)
		}
		payload := st.AppendCheckpoint(nil)
		binary.LittleEndian.PutUint16(payload, 1)
		if _, err := RestoreEstimatorState(payload, UndirectedWorkload(g)); err == nil {
			t.Errorf("%+v: version-2 payload accepted under the version-1 layout", shape)
		}
		binary.LittleEndian.PutUint16(payload, 3)
		if _, err := RestoreEstimatorState(payload, UndirectedWorkload(g)); err == nil {
			t.Errorf("%+v: version-3 payload accepted", shape)
		}
	}
}

// TestDenseByteIgnored: the byte that carried the deleted forced-dense knob
// is still written, as 0, so the layout stays version 2. A payload written
// while the knob existed may hold 1 there; it must restore to the very
// state the byte-0 payload restores to and resume bit-identically.
func TestDenseByteIgnored(t *testing.T) {
	const denseByteOff = 2 + 1 + 4 + 4 + 4 + 8 + 8 + 8 + 4 + 4 + 8 + 8 // version ... EpochSkew
	w := UndirectedWorkload(testGraph())
	st, err := NewEstimatorState(w, 0, Config{Eps: 0.03, Delta: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Run(context.Background(), Budget{MaxSamples: 700}); err != nil {
		t.Fatal(err)
	}
	payload := st.AppendCheckpoint(nil)
	if payload[denseByteOff] != 0 {
		t.Fatalf("byte %d of a fresh payload is %d, want 0", denseByteOff, payload[denseByteOff])
	}
	flipped := bytes.Clone(payload)
	flipped[denseByteOff] = 1
	var results [2]*Result
	for i, p := range [][]byte{payload, flipped} {
		restored, err := RestoreEstimatorState(p, w)
		if err != nil {
			t.Fatalf("dense byte %d: %v", p[denseByteOff], err)
		}
		if !bytes.Equal(restored.AppendCheckpoint(nil), payload) {
			t.Fatalf("dense byte %d: the restored state re-serializes to a different payload", p[denseByteOff])
		}
		if err := restored.Run(context.Background(), Budget{}); err != nil {
			t.Fatal(err)
		}
		results[i] = restored.Result()
	}
	resultsBitIdentical(t, results[0], results[1], "dense byte 0 vs 1")
}
