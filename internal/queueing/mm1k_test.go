package queueing

import (
	"math"
	"testing"

	"pepatags/internal/dist"
	"pepatags/internal/numeric"
)

func TestMM1KDistributionSums(t *testing.T) {
	q := NewMM1K(5, 10, 10)
	pi := q.Pi()
	if len(pi) != 11 {
		t.Fatalf("len %d", len(pi))
	}
	if !numeric.AlmostEqual(numeric.KahanSum(pi), 1, 1e-12) {
		t.Fatal("pi does not sum to 1")
	}
	// Geometric ratio.
	for i := 1; i < len(pi); i++ {
		if !numeric.AlmostEqual(pi[i]/pi[i-1], 0.5, 1e-10) {
			t.Fatalf("ratio at %d: %v", i, pi[i]/pi[i-1])
		}
	}
}

func TestMM1KLossAndThroughputConservation(t *testing.T) {
	for _, tc := range []struct {
		lambda, mu float64
		k          int
	}{{5, 10, 10}, {11, 10, 10}, {10, 10, 3}, {1, 100, 2}} {
		q := NewMM1K(tc.lambda, tc.mu, tc.k)
		if x, l := q.Throughput(), q.LossRate(); !numeric.AlmostEqual(x+l, tc.lambda, 1e-10) {
			t.Fatalf("%+v: X+loss = %v != lambda", tc, x+l)
		}
		// Loss equals pi_K.
		if !numeric.AlmostEqual(q.LossProbability(), q.Pi()[tc.k], 1e-12) {
			t.Fatalf("%+v: loss prob mismatch", tc)
		}
	}
}

func TestMM1KCriticalLoad(t *testing.T) {
	q := NewMM1K(10, 10, 10)
	// rho = 1: uniform distribution, loss = 1/(K+1).
	if !numeric.AlmostEqual(q.LossProbability(), 1.0/11, 1e-9) {
		t.Fatalf("loss %v want 1/11", q.LossProbability())
	}
	if !numeric.AlmostEqual(q.MeanQueueLength(), 5, 1e-9) {
		t.Fatalf("L %v want 5", q.MeanQueueLength())
	}
}

func TestMM1KLossMonotoneInLambda(t *testing.T) {
	prev := -1.0
	for lambda := 1.0; lambda <= 20; lambda++ {
		p := NewMM1K(lambda, 10, 10).LossProbability()
		if p < prev {
			t.Fatalf("loss decreased at lambda=%v", lambda)
		}
		prev = p
	}
}

func TestMM1KLargeKApproachesMM1(t *testing.T) {
	// K large, rho < 1: W -> 1/(mu - lambda).
	q := NewMM1K(5, 10, 500)
	want := 1.0 / (10 - 5)
	if !numeric.AlmostEqual(q.ResponseTime(), want, 1e-9) {
		t.Fatalf("W %v want %v", q.ResponseTime(), want)
	}
	if !numeric.AlmostEqual(q.Utilization(), 0.5, 1e-9) {
		t.Fatalf("util %v", q.Utilization())
	}
}

func TestLittleGuard(t *testing.T) {
	if !math.IsInf(Little(1, 0), 1) {
		t.Fatal("zero throughput must give +inf")
	}
	if Little(10, 5) != 2 {
		t.Fatal("Little wrong")
	}
}

func TestMPH1KExponentialMatchesMM1K(t *testing.T) {
	lambda, mu, k := 5.0, 10.0, 10
	q := MPH1K{Lambda: lambda, Service: dist.NewExponential(mu).ToPhaseType(), K: k}
	got, err := q.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	want := NewMM1K(lambda, mu, k)
	if !numeric.AlmostEqual(got.MeanQueueLength, want.MeanQueueLength(), 1e-9) {
		t.Fatalf("L %v want %v", got.MeanQueueLength, want.MeanQueueLength())
	}
	if !numeric.AlmostEqual(got.Throughput, want.Throughput(), 1e-9) {
		t.Fatalf("X %v want %v", got.Throughput, want.Throughput())
	}
	if !numeric.AlmostEqual(got.ResponseTime, want.ResponseTime(), 1e-9) {
		t.Fatalf("W %v want %v", got.ResponseTime, want.ResponseTime())
	}
	if !numeric.AlmostEqual(got.Utilization, want.Utilization(), 1e-9) {
		t.Fatalf("util %v want %v", got.Utilization, want.Utilization())
	}
}

func TestMPH1KErlangServiceReducesVariance(t *testing.T) {
	// With the same mean service, Erlang-4 service yields a shorter
	// mean queue than exponential (lower service variability).
	lambda, k := 8.0, 20
	exp := MPH1K{Lambda: lambda, Service: dist.NewExponential(10).ToPhaseType(), K: k}
	erl := MPH1K{Lambda: lambda, Service: dist.NewErlang(4, 40).ToPhaseType(), K: k}
	me, err := exp.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	mr, err := erl.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if mr.MeanQueueLength >= me.MeanQueueLength {
		t.Fatalf("Erlang L %v should be below exponential L %v", mr.MeanQueueLength, me.MeanQueueLength)
	}
}

func TestMPH1KHyperExpServiceIncreasesQueue(t *testing.T) {
	lambda, k := 8.0, 20
	exp := MPH1K{Lambda: lambda, Service: dist.NewExponential(10).ToPhaseType(), K: k}
	h2 := MPH1K{Lambda: lambda, Service: dist.H2ForTAG(0.1, 0.99, 100).ToPhaseType(), K: k}
	me, _ := exp.Analyze()
	mh, err := h2.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if mh.MeanQueueLength <= me.MeanQueueLength {
		t.Fatalf("H2 L %v should exceed exponential L %v", mh.MeanQueueLength, me.MeanQueueLength)
	}
	// Conservation.
	if !numeric.AlmostEqual(mh.Throughput+mh.LossRate, lambda, 1e-8) {
		t.Fatal("flow conservation broken")
	}
}

func TestMPH1KStateCount(t *testing.T) {
	q := MPH1K{Lambda: 1, Service: dist.NewErlang(3, 3).ToPhaseType(), K: 5}
	c := q.Build()
	// 1 empty + K * order states.
	if c.NumStates() != 1+5*3 {
		t.Fatalf("states %d want 16", c.NumStates())
	}
	if err := c.CheckIrreducible(); err != nil {
		t.Fatal(err)
	}
}
