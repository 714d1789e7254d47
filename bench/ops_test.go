package main

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/betweenness"
)

func TestFailureClassifier(t *testing.T) {
	const eps = 0.01
	ref := []float64{0.5, 0.1, 0}
	good := func() *opResult {
		return &opResult{converged: true, achievedEps: 0.009, estimates: []float64{0.51, 0.095, 0}, res: &betweenness.Result{}}
	}
	cases := []struct {
		name   string
		mutate func(*opResult)
		want   string // substring of the reason; "" = the op counts
	}{
		{"ok", func(*opResult) {}, ""},
		{"within 2*eps of the reference", func(op *opResult) { op.estimates[0] = 0.5199 }, ""},
		{"call error", func(op *opResult) { op.err = errors.New("boom") }, "error: boom"},
		{"not converged", func(op *opResult) { op.converged = false }, "not converged"},
		{"achieved eps above target", func(op *opResult) { op.achievedEps = 0.0101 }, "above the target"},
		{"NaN estimate", func(op *opResult) { op.estimates[1] = math.NaN() }, "estimate NaN at vertex 1"},
		{"negative estimate", func(op *opResult) { op.estimates[2] = -1e-9 }, "at vertex 2"},
		{"2*eps disagreement", func(op *opResult) { op.estimates[0] = 0.5201 }, "more than 2*eps apart"},
		{"wrong length", func(op *opResult) { op.estimates = op.estimates[:2] }, "reference has 3"},
		{"no estimates", func(op *opResult) { op.estimates = nil }, "no estimates"},
		{"cache miss on the repeat", func(op *opResult) { op.paired = true }, "not served from the cache"},
		{"cache hit on the repeat", func(op *opResult) { op.paired, op.repeat.cached = true, true }, ""},
	}
	for _, c := range cases {
		op := good()
		c.mutate(op)
		got := op.failure(eps, ref)
		if (c.want == "") != (got == "") || !strings.Contains(got, c.want) {
			t.Errorf("%s: failure = %q, want %q", c.name, got, c.want)
		}
	}
	// Without a reference only the absolute checks apply.
	far := good()
	far.estimates[0] = 0.9
	if got := far.failure(eps, nil); got != "" {
		t.Errorf("no reference: failure = %q, want none", got)
	}
}
