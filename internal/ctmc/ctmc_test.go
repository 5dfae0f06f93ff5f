package ctmc

import (
	"fmt"
	"math"
	"testing"

	"pepatags/internal/numeric"
)

// buildMM1K constructs an M/M/1/K chain with arrival/service actions.
func buildMM1K(lambda, mu float64, k int) *Chain {
	b := NewBuilder()
	for i := 0; i <= k; i++ {
		b.State(fmt.Sprintf("Q%d", i))
	}
	for i := 0; i <= k; i++ {
		if i < k {
			b.Transition(i, i+1, lambda, "arrival")
		} else {
			b.Transition(i, i, lambda, "loss") // arrivals lost at capacity
		}
		if i > 0 {
			b.Transition(i, i-1, mu, "service")
		}
	}
	return b.Build()
}

// mm1kStationary is the closed form.
func mm1kStationary(lambda, mu float64, k int) []float64 {
	pi := make([]float64, k+1)
	rho := lambda / mu
	for i := range pi {
		pi[i] = math.Pow(rho, float64(i))
	}
	numeric.Normalize(pi)
	return pi
}

func TestBuilderInterning(t *testing.T) {
	b := NewBuilder()
	a := b.State("x")
	if b.State("x") != a {
		t.Fatal("interning broken")
	}
	if !b.HasState("x") || b.HasState("y") {
		t.Fatal("HasState broken")
	}
	if b.NumStates() != 1 {
		t.Fatal("NumStates broken")
	}
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder()
	b.State("a")
	b.State("b")
	for name, f := range map[string]func(){
		"zero rate": func() { b.Transition(0, 1, 0, "x") },
		"nan rate":  func() { b.Transition(0, 1, math.NaN(), "x") },
		"bad index": func() { b.Transition(0, 5, 1, "x") },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		})
	}
}

func TestSteadyStateMatchesClosedForm(t *testing.T) {
	c := buildMM1K(5, 10, 10)
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	want := mm1kStationary(5, 10, 10)
	if d := numeric.MaxAbsDiff(pi, want); d > 1e-10 {
		t.Fatalf("diff %g", d)
	}
}

func TestActionThroughput(t *testing.T) {
	lambda, mu, k := 5.0, 10.0, 10
	c := buildMM1K(lambda, mu, k)
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	// Effective arrival rate = lambda (1 - pi_K); service throughput equals it.
	accept := c.ActionThroughput(pi, "arrival")
	serve := c.ActionThroughput(pi, "service")
	loss := c.ActionThroughput(pi, "loss")
	wantAccept := lambda * (1 - pi[k])
	if !numeric.AlmostEqual(accept, wantAccept, 1e-10) {
		t.Fatalf("accept %v want %v", accept, wantAccept)
	}
	if !numeric.AlmostEqual(serve, accept, 1e-10) {
		t.Fatalf("flow balance broken: in %v out %v", accept, serve)
	}
	if !numeric.AlmostEqual(loss, lambda*pi[k], 1e-10) {
		t.Fatalf("loss %v want %v", loss, lambda*pi[k])
	}
	if !numeric.AlmostEqual(accept+loss, lambda, 1e-10) {
		t.Fatal("accept + loss != lambda")
	}
}

func TestExpectationAndProbability(t *testing.T) {
	c := buildMM1K(5, 10, 10)
	pi, _ := c.SteadyState()
	l := c.Expectation(pi, func(s int) float64 { return float64(s) })
	// Compare against direct sum over the closed form.
	want := 0.0
	for i, p := range mm1kStationary(5, 10, 10) {
		want += float64(i) * p
	}
	if !numeric.AlmostEqual(l, want, 1e-10) {
		t.Fatalf("L %v want %v", l, want)
	}
	pEmpty := c.Probability(pi, func(s int) bool { return s == 0 })
	if !numeric.AlmostEqual(pEmpty, pi[0], 1e-14) {
		t.Fatal("Probability broken")
	}
}

func TestActionsSorted(t *testing.T) {
	c := buildMM1K(1, 2, 2)
	acts := c.Actions()
	want := []string{"arrival", "loss", "service"}
	if len(acts) != 3 {
		t.Fatalf("actions %v", acts)
	}
	for i := range want {
		if acts[i] != want[i] {
			t.Fatalf("actions %v want %v", acts, want)
		}
	}
}

func TestCheckIrreducible(t *testing.T) {
	c := buildMM1K(1, 2, 3)
	if err := c.CheckIrreducible(); err != nil {
		t.Fatalf("MM1K should be irreducible: %v", err)
	}
	// A chain with an unreachable state.
	b := NewBuilder()
	b.State("a")
	b.State("b")
	b.State("orphan")
	b.Transition(0, 1, 1, "x")
	b.Transition(1, 0, 1, "y")
	b.Transition(2, 0, 1, "z") // orphan can reach 0 but not vice versa
	if err := b.Build().CheckIrreducible(); err == nil {
		t.Fatal("expected unreachable-state error")
	}
}

func TestGeneratorRowSumsZero(t *testing.T) {
	c := buildMM1K(5, 10, 6)
	q := c.Generator()
	for i := 0; i < q.Rows; i++ {
		var s float64
		q.RangeRow(i, func(j int, v float64) { s += v })
		if math.Abs(s) > 1e-12 {
			t.Fatalf("row %d sums to %g", i, s)
		}
	}
	// Cached: same pointer on second call.
	if c.Generator() != q {
		t.Fatal("generator not cached")
	}
}

func TestSelfLoopsExcludedFromGenerator(t *testing.T) {
	c := buildMM1K(5, 10, 2)
	q := c.Generator()
	// State k=2 has a self-loop "loss" transition that must not appear:
	// its diagonal equals only -mu.
	if !numeric.AlmostEqual(q.At(2, 2), -10, 1e-12) {
		t.Fatalf("diagonal with self-loop wrong: %v", q.At(2, 2))
	}
}

func TestLabel(t *testing.T) {
	c := buildMM1K(1, 1, 1)
	if c.Label(0) != "Q0" || c.Label(1) != "Q1" {
		t.Fatalf("labels %q, %q; want Q0, Q1", c.Label(0), c.Label(1))
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	c := buildMM1K(5, 10, 8)
	pi, _ := c.SteadyState()
	pt, err := c.Transient(c.PointMass(0), 50, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if d := numeric.MaxAbsDiff(pt, pi); d > 1e-6 {
		t.Fatalf("transient at t=50 differs from steady state by %g", d)
	}
}

func TestTransientShortHorizon(t *testing.T) {
	// Pure birth at rate 1 from empty: P(still empty at t) = e^{-t}.
	c := buildMM1K(1, 1000, 3) // service fast but irrelevant for state 0 occupancy question
	pt, err := c.Transient(c.PointMass(0), 0.1, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	// P(no arrival in 0.1) = e^{-0.1}; service can only return to 0, so
	// P(empty) >= e^{-0.1}.
	if pt[0] < math.Exp(-0.1)-1e-9 {
		t.Fatalf("P(empty at 0.1) = %v < e^-0.1", pt[0])
	}
	// t = 0 returns pi0.
	p0, _ := c.Transient(c.PointMass(0), 0, 0)
	if p0[0] != 1 {
		t.Fatal("t=0 should be the point mass")
	}
}

func TestTransientValidation(t *testing.T) {
	c := buildMM1K(1, 1, 1)
	if _, err := c.Transient([]float64{1}, 1, 0); err == nil {
		t.Fatal("wrong pi0 length must fail")
	}
	if _, err := c.Transient(c.PointMass(0), -1, 0); err == nil {
		t.Fatal("negative time must fail")
	}
}
