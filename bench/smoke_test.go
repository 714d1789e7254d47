package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// toySize runs the benchmark's own code on inputs of a few hundred vertices.
var toySize = sizes{
	socialScale: 8, smallScale: 8, weightedScale: 8, roadSide: 16,
	twinScale: 8, twinWeightedScale: 8, twinRoadSide: 12,
}

// layersOf lists the workloads on which a per-layer metric must appear;
// metrics not named here must appear on all five.
var layersOf = map[string]string{
	"bigio.":                   "social-shm",
	"bfs.unweighted_sample_ns": "weighted-seq",
	"bfs.weighted_gap":         "weighted-seq",
	"pq.":                      "weighted-seq",
	"kadabra.shm_speedup":      "social-shm road-shm",
	"core.":                    "small-tcp2",
	"server.":                  "daemon-session",
}

func wantedOn(metric, workload string) bool {
	for prefix, names := range layersOf {
		if strings.HasPrefix(metric, prefix) {
			return strings.Contains(names, workload)
		}
	}
	return true
}

// TestSmokeAllWorkloads runs every workload end to end at toy size — set-up
// with its correctness reference, warm-up, two timed ops, the traced pass
// with baseline and probes — and checks that every named metric comes out
// present and finite, with no failed op.
func TestSmokeAllWorkloads(t *testing.T) {
	cfg := runConfig{
		seed: 7, seconds: 0.01, endToEnd: true, layers: true,
		outDir: t.TempDir(), size: toySize, fixedOps: 2, reps: 1,
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep := runWorkload(context.Background(), w, cfg)
			if rep.Failed != 0 || len(rep.Failures) != 0 {
				t.Fatalf("failed ops: %d of %d: %v", rep.Failed, rep.Attempted, rep.Failures)
			}
			if rep.Ops != 2 || rep.Attempted < 2+tracedOps {
				t.Errorf("ops = %d, attempted = %d; want 2 timed and at least %d traced", rep.Ops, rep.Attempted, tracedOps)
			}
			for _, def := range endToEnd {
				s := rep.EndToEnd[def.Name]
				if s.N == 0 || !(s.Median > 0) || math.IsInf(s.Median, 0) || s.Unit != def.Unit {
					t.Errorf("end-to-end %s = %+v", def.Name, s)
				}
			}
			for _, def := range perLayer {
				v, ok := rep.PerLayer[def.Name]
				if ok != wantedOn(def.Name, w.name) {
					t.Errorf("per-layer %s: present = %v, want %v", def.Name, ok, !ok)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer %s = %v", def.Name, v)
				}
			}
			for name := range rep.PerLayer {
				metric(name) // panics on a name the table does not hold
			}

			// On the median op the Fig. 2b row plus the overheads is the op.
			m := rep.PerLayer
			sum := m["kadabra.diameter_s"] + m["kadabra.calibration_s"] + m["kadabra.sampling_s"] +
				(m["betweenness.overhead_ms"]+m["server.overhead_ms"])/1e3
			if est := rep.EndToEnd["estimate_s"].Median; math.Abs(sum-est) > 0.02*est {
				t.Errorf("phases + overhead = %g s, estimate_s = %g s", sum, est)
			}

			data, err := os.ReadFile(rep.Trace)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct{ TraceEvents []struct{ Name string } }
			if err := json.Unmarshal(data, &trace); err != nil {
				t.Fatalf("trace does not load: %v", err)
			}
			names := make(map[string]int)
			for _, e := range trace.TraceEvents {
				names[strings.SplitN(e.Name, " ", 2)[0]]++
			}
			for _, want := range []string{w.name, "setup", "op", "baseline", "probe:bfs", "probe:mpi"} {
				if names[want] == 0 {
					t.Errorf("trace has no %q span (has %v)", want, names)
				}
			}

			// The contract line carries every metric of both tables.
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(contractLine(rep, cfg)), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted != rep.Attempted || len(line.Metrics) != len(endToEnd)+len(perLayer) {
				t.Errorf("contract line: correct=%v attempted=%d failed=%d metrics=%d", line.Correct, line.Attempted, line.Failed, len(line.Metrics))
			}
		})
	}
}
