package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lo := metricDef{Name: "estimate_s", Unit: "s", Better: lower, Bound: 0.10}
	hi := metricDef{Name: "ads_samples_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	tight := func(m float64) summary { return summary{N: 7, Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	// 20% spread over 3 ops pins the median to 11.5%: coarser than the bound.
	wide := func(m float64) summary { return summary{N: 3, Median: m, Q1: m * 0.9, Q3: m * 1.1} }
	many := func(m float64) summary { return summary{N: 100, Median: m, Q1: m * 0.9, Q3: m * 1.1} }
	cases := []struct {
		a, b summary
		def  metricDef
		want string
	}{
		{tight(1), tight(1.09), lo, verdictOK},
		{tight(1), tight(1.11), lo, verdictWorse},
		{tight(1), tight(0.5), lo, verdictOK}, // faster is never worse
		{tight(100), tight(91), hi, verdictOK},
		{tight(100), tight(89), hi, verdictWorse},
		{tight(100), tight(200), hi, verdictOK},
		{wide(1), tight(1.05), lo, verdictUnresolved}, // too few noisy ops to see a 10% change
		{many(1), tight(1.05), lo, verdictOK},         // the same noise over 100 ops resolves it
		{tight(1), wide(1.05), lo, verdictUnresolved},
		{wide(1), wide(1.5), lo, verdictWorse}, // worse beats unresolved
	}
	for i, c := range cases {
		if got := verdict(c.a, c.b, c.def); got != c.want {
			t.Errorf("case %d: verdict = %s, want %s", i, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(estimate float64, failed int) *report {
		return &report{Workloads: []*workloadReport{{
			Name: "social-shm", Attempted: 7, Failed: failed,
			EndToEnd: map[string]summary{
				"estimate_s": {Unit: "s", N: 7, Median: estimate, Q1: estimate * 0.99, Q3: estimate * 1.01},
			},
		}}}
	}
	var out bytes.Buffer
	if !compareReports(&out, mk(1.5, 0), mk(1.52, 0)) {
		t.Errorf("a 1.3%% change must be accepted:\n%s", out.String())
	}
	for _, want := range []string{"social-shm: failed 0/7 -> 0/7", "estimate_s", "B/A 1.013", "base 1.5 s", " ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if compareReports(&out, mk(1.5, 0), mk(2.0, 0)) || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 33%% slowdown must be rejected as worse:\n%s", out.String())
	}
	out.Reset()
	if compareReports(&out, mk(1.5, 0), mk(1.5, 1)) || !strings.Contains(out.String(), "failed share rose") {
		t.Errorf("a higher failed share must be rejected:\n%s", out.String())
	}
}
