package dist

import (
	"math"
	"testing"

	"pepatags/internal/numeric"
)

func TestFitH2TwoMoments(t *testing.T) {
	for _, tc := range []struct{ m1, scv float64 }{
		{0.1, 1}, {0.1, 5}, {1, 20}, {3, 100},
	} {
		h, err := FitH2TwoMoments(tc.m1, tc.scv)
		if err != nil {
			t.Fatalf("fit(%v): %v", tc, err)
		}
		if !numeric.AlmostEqual(h.Mean(), tc.m1, 1e-10) {
			t.Fatalf("fit(%v): mean %v", tc, h.Mean())
		}
		if !numeric.AlmostEqual(SCV(h), tc.scv, 1e-8) {
			t.Fatalf("fit(%v): scv %v", tc, SCV(h))
		}
	}
	if _, err := FitH2TwoMoments(1, 0.5); err == nil {
		t.Fatal("scv < 1 must fail")
	}
	if _, err := FitH2TwoMoments(-1, 2); err == nil {
		t.Fatal("negative mean must fail")
	}
}

func TestFitErlang(t *testing.T) {
	e, err := FitErlang(0.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if e.K != 4 {
		t.Fatalf("K=%d want 4", e.K)
	}
	if !numeric.AlmostEqual(e.Mean(), 0.5, 1e-12) {
		t.Fatalf("mean %v", e.Mean())
	}
	if _, err := FitErlang(1, 2); err == nil {
		t.Fatal("scv > 1 must fail")
	}
}

func TestFitH2EMRecovers(t *testing.T) {
	// Generate from a well-separated H2; EM initialised by moment fit
	// should recover parameters approximately.
	truth := NewH2(0.8, 10, 0.5)
	rng := newRNG(99)
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = truth.Sample(rng)
	}
	init, err := FitH2TwoMoments(truth.Mean(), SCV(truth))
	if err != nil {
		t.Fatal(err)
	}
	fit, ll, err := FitH2EM(samples, init, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ll) || math.IsInf(ll, 0) {
		t.Fatalf("average log-likelihood not finite: %v", ll)
	}
	if !numeric.AlmostEqual(fit.Mean(), truth.Mean(), 0.05) {
		t.Fatalf("EM mean %v truth %v", fit.Mean(), truth.Mean())
	}
	if !numeric.AlmostEqual(fit.Alpha[0], truth.Alpha[0], 0.1) {
		t.Fatalf("EM alpha %v truth %v", fit.Alpha[0], truth.Alpha[0])
	}
}

func TestFitH2EMValidation(t *testing.T) {
	init := NewH2(0.5, 1, 2)
	if _, _, err := FitH2EM(nil, init, 10); err == nil {
		t.Fatal("no samples must fail")
	}
	if _, _, err := FitH2EM([]float64{1, -2}, init, 10); err == nil {
		t.Fatal("negative sample must fail")
	}
}

func TestFitH2EMImprovesLikelihood(t *testing.T) {
	truth := NewH2(0.9, 20, 0.2)
	rng := newRNG(5)
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = truth.Sample(rng)
	}
	init := NewH2(0.5, 5, 1)
	_, ll1, err := FitH2EM(samples, init, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ll50, err := FitH2EM(samples, init, 50)
	if err != nil {
		t.Fatal(err)
	}
	if ll50 < ll1-1e-9 {
		t.Fatalf("likelihood decreased: %v -> %v", ll1, ll50)
	}
}
