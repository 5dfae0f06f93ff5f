package stats

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

func TestPoolMeansEmpty(t *testing.T) {
	if _, err := PoolMeans(nil); err == nil {
		t.Fatal("empty input must fail")
	}
}

func TestPoolMeansSingleRep(t *testing.T) {
	p, err := PoolMeans([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	if p.Reps != 1 || p.Mean != 3.5 || p.StdErr != 0 || p.HalfWidth != 0 { //vet:allow floatcmp: exact propagation of the single input
		t.Fatalf("single-rep pool %+v", p)
	}
}

func TestPoolMeansKnownValues(t *testing.T) {
	p, err := PoolMeans([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.Reps != 3 || p.Mean != 2 { //vet:allow floatcmp: exact mean of {1,2,3}
		t.Fatalf("pool %+v", p)
	}
	// Sample variance 1 over 3 reps: stderr sqrt(1/3), t(0.975, df=2).
	wantSE := math.Sqrt(1.0 / 3)
	if math.Abs(p.StdErr-wantSE) > 1e-12 {
		t.Fatalf("stderr %v want %v", p.StdErr, wantSE)
	}
	if wantHW := 4.303 * wantSE; math.Abs(p.HalfWidth-wantHW) > 1e-12 {
		t.Fatalf("half-width %v want %v", p.HalfWidth, wantHW)
	}
	if s := p.String(); !strings.Contains(s, "r=3") || !strings.Contains(s, "±") {
		t.Fatalf("String %q", s)
	}
}

func TestPoolMeansPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	means := make([]float64, 9)
	for i := range means {
		means[i] = rng.ExpFloat64()
	}
	want, err := PoolMeans(means)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		shuf := make([]float64, len(means))
		for i, j := range rng.Perm(len(means)) {
			shuf[i] = means[j]
		}
		got, err := PoolMeans(shuf)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("permutation changed the pool: %+v vs %+v", got, want)
		}
	}
}

func TestTQuantile975(t *testing.T) {
	if !math.IsInf(TQuantile975(0), 1) {
		t.Fatal("df < 1 must return +Inf")
	}
	cases := map[int]float64{
		1:    12.706,
		2:    4.303,
		30:   2.042,
		31:   1.959963984540054,
		1000: 1.959963984540054,
	}
	for df, want := range cases {
		if got := TQuantile975(df); got != want { //vet:allow floatcmp: table lookups, not computed values
			t.Fatalf("df=%d got %v want %v", df, got, want)
		}
	}
}
