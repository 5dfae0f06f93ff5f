package stats

import (
	"math"
	"testing"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 || s.Mean() != 3 {
		t.Fatalf("n=%d mean=%v", s.N(), s.Mean())
	}
	if s.Var() != 2.5 {
		t.Fatalf("var %v want 2.5", s.Var())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min/max %v %v", s.Min(), s.Max())
	}
	if s.CI95() <= 0 {
		t.Fatal("CI must be positive")
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.StdErr() != 0 {
		t.Fatal("empty summary should be zero")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if Percentile(xs, 0) != 1 || Percentile(xs, 1) != 5 {
		t.Fatal("extremes wrong")
	}
	if Percentile(xs, 0.5) != 3 {
		t.Fatalf("median %v want 3", Percentile(xs, 0.5))
	}
	// Interpolation between 4 and 5 at p=0.875: 4.5.
	if got := Percentile(xs, 0.875); math.Abs(got-4.5) > 1e-12 {
		t.Fatalf("p=0.875 got %v want 4.5", got)
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Fatal("input mutated")
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty input")
	}
	// Clamping.
	if Percentile(xs, -1) != 1 || Percentile(xs, 2) != 5 {
		t.Fatal("clamping broken")
	}
}

func TestReservoirSmallStreamKeepsAll(t *testing.T) {
	r := NewReservoir(10, func() float64 { return 0 })
	for i := 1; i <= 5; i++ {
		r.Add(float64(i))
	}
	if r.Percentile(1) != 5 || r.Percentile(0) != 1 {
		t.Fatal("retained values wrong")
	}
}

func TestReservoirLongStreamQuantiles(t *testing.T) {
	// Uniform stream 0..1: reservoir median should be near 0.5.
	seed := uint64(12345)
	lcg := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>33) / float64(1<<31)
	}
	r := NewReservoir(2000, lcg)
	for i := 0; i < 200000; i++ {
		r.Add(lcg())
	}
	if med := r.Percentile(0.5); math.Abs(med-0.5) > 0.05 {
		t.Fatalf("median %v", med)
	}
}
