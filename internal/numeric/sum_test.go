package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKahanSumCancellation(t *testing.T) {
	// Classic case: 1 followed by many tiny values that naive summation
	// drops entirely.
	xs := make([]float64, 1e6+1)
	xs[0] = 1
	for i := 1; i < len(xs); i++ {
		xs[i] = 1e-16
	}
	got := KahanSum(xs)
	want := 1 + 1e-10
	if math.Abs(got-want) > 1e-14 {
		t.Fatalf("KahanSum got %v want %v", got, want)
	}
}

func TestAccumulatorMatchesKahanSum(t *testing.T) {
	prop := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				xs[i] = 0
			}
		}
		var acc Accumulator
		for _, x := range xs {
			acc.Add(x)
		}
		a, b := acc.Sum(), KahanSum(xs)
		return a == b || AlmostEqual(a, b, 1e-12)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalize(t *testing.T) {
	xs := []float64{1, 3}
	s := Normalize(xs)
	if s != 4 {
		t.Fatalf("sum got %v want 4", s)
	}
	if xs[0] != 0.25 || xs[1] != 0.75 {
		t.Fatalf("normalized got %v", xs)
	}
	// Zero vector left unchanged.
	zs := []float64{0, 0}
	if s := Normalize(zs); s != 0 || zs[0] != 0 {
		t.Fatalf("zero vector mishandled: s=%v zs=%v", s, zs)
	}
}

func TestNormalizeProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) <= 1e150 {
				xs = append(xs, math.Abs(x))
			}
		}
		s := KahanSum(xs)
		if s <= 0 || math.IsInf(s, 0) {
			return true
		}
		Normalize(xs)
		return AlmostEqual(KahanSum(xs), 1, 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(got) != len(want) {
		t.Fatalf("length %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Linspace[%d]=%v want %v", i, got[i], want[i])
		}
	}
	if Linspace(0, 1, 0) != nil {
		t.Fatal("n=0 should return nil")
	}
	one := Linspace(3, 9, 1)
	if len(one) != 1 || one[0] != 3 {
		t.Fatalf("n=1 got %v", one)
	}
}

func TestDistances(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{2, 0, 3}
	if got := MaxAbsDiff(a, b); got != 2 {
		t.Fatalf("MaxAbsDiff got %v want 2", got)
	}
}
