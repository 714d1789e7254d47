package stats

import (
	"math"
	"testing"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 9}); got != 5 {
		t.Fatalf("Mean(2,4,9) = %f, want 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Mean of an empty slice did not panic")
		}
	}()
	Mean(nil)
}

func TestCompareScores(t *testing.T) {
	exact := []float64{0.5, 0.2, 0.0}
	approx := []float64{0.45, 0.21, 0.2}
	r := CompareScores(exact, approx, 0.06)
	if math.Abs(r.MaxAbs-0.2) > 1e-12 || r.ArgMax != 2 {
		t.Fatalf("MaxAbs=%f ArgMax=%d", r.MaxAbs, r.ArgMax)
	}
	if r.WithinEps != 2 {
		t.Fatalf("WithinEps=%d", r.WithinEps)
	}
	want := (0.05 + 0.01 + 0.2) / 3
	if math.Abs(r.MeanAbs-want) > 1e-12 {
		t.Fatalf("MeanAbs=%f", r.MeanAbs)
	}
}

func TestTopKOverlap(t *testing.T) {
	a := []float64{0.9, 0.8, 0.1, 0.0}
	b := []float64{0.9, 0.0, 0.8, 0.1}
	if got := TopKOverlap(a, b, 2); got != 0.5 {
		t.Fatalf("overlap = %f, want 0.5", got)
	}
	if got := TopKOverlap(a, a, 3); got != 1 {
		t.Fatalf("self overlap = %f", got)
	}
}

func TestTopKOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	TopKOverlap([]float64{1}, []float64{1}, 0)
}
