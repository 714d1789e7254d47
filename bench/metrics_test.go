package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestMetricTableMatchesBenchmarkJSON keeps the one table metric names are
// emitted from identical to what BENCHMARK.json promises the driver.
func TestMetricTableMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind string, got, want []metricDef, limit int) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(got), len(want))
		}
		if len(want) < 1 || len(want) > limit {
			t.Errorf("%s: %d metrics, the contract allows 1..%d", kind, len(want), limit)
		}
		for i, def := range want {
			if got[i] != def {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the table %+v", kind, i, got[i], def)
			}
			if !name.MatchString(def.Name) || !unit.MatchString(def.Unit) || seen[def.Name] {
				t.Errorf("%s[%d]: bad or repeated name/unit %q %q", kind, i, def.Name, def.Unit)
			}
			seen[def.Name] = true
			if def.Better != lower && def.Better != higher {
				t.Errorf("%s: better = %q", def.Name, def.Better)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, 16)
	check("per_layer", file.PerLayer, perLayer, 128)
	for _, def := range endToEnd {
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", def.Name, def.Bound)
		}
	}
	for _, def := range perLayer {
		if def.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", def.Name)
		}
	}
	if setup := metric("setup_s"); setup.Unit != "s" || setup.Better != lower {
		t.Errorf("setup_s = %+v", setup)
	}

	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q (or their why differs)", i, file.Workloads[i].Name, w.name)
		}
		if !name.MatchString(w.name) || seen[w.name] || len(w.why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or why longer than 200 characters (%d)", w.name, len(w.why))
		}
		seen[w.name] = true
	}
}
