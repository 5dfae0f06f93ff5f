package ctmc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pepatags/internal/linalg"
	"pepatags/internal/numeric"
)

func TestExpectedHittingTimesPureBirth(t *testing.T) {
	// Pure birth chain 0 -> 1 -> 2 at rate 2: E[hit 2 from 0] = 1.
	b := NewBuilder()
	for i := 0; i <= 2; i++ {
		b.State(labelOf(i))
	}
	b.Transition(0, 1, 2, "up")
	b.Transition(1, 2, 2, "up")
	b.Transition(2, 0, 1, "reset") // keep the chain irreducible
	c := b.Build()
	h, err := c.ExpectedHittingTimes(func(s int) bool { return s == 2 })
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(h[0], 1, 1e-12) || !numeric.AlmostEqual(h[1], 0.5, 1e-12) || h[2] != 0 {
		t.Fatalf("h=%v", h)
	}
}

func labelOf(i int) string { return string(rune('a' + i)) }

func TestExpectedHittingTimesMM1KFill(t *testing.T) {
	// Expected time for an M/M/1/K queue to fill from empty; verify
	// against the classical birth-death ladder formula
	//   E[T_{0->K}] = sum_{i=0}^{K-1} (1/lambda_i) sum ... ,
	// computed here by the recursive form
	//   m_i = 1/lambda + (mu/lambda) m_{i-1}, m_0 = 1/lambda,
	// where m_i is the expected time to go from i to i+1.
	lambda, mu := 5.0, 10.0
	k := 6
	c := buildMM1K(lambda, mu, k)
	h, err := c.ExpectedHittingTimes(func(s int) bool { return s == k })
	if err != nil {
		t.Fatal(err)
	}
	m := make([]float64, k)
	m[0] = 1 / lambda
	for i := 1; i < k; i++ {
		m[i] = 1/lambda + mu/lambda*m[i-1]
	}
	var want float64
	for _, v := range m {
		want += v
	}
	if !numeric.AlmostEqual(h[0], want, 1e-10) {
		t.Fatalf("fill time %v want %v", h[0], want)
	}
}

func TestHittingProbabilitiesGamblersRuin(t *testing.T) {
	// Birth-death on 0..4 with up rate p=2, down rate q=1. P(hit 4
	// before 0 | start i) follows the classic ruin formula with ratio
	// r = q/p = 1/2: P_i = (1-r^i)/(1-r^N).
	b := NewBuilder()
	n := 4
	for i := 0; i <= n; i++ {
		b.State(labelOf(i))
	}
	for i := 1; i < n; i++ {
		b.Transition(i, i+1, 2, "up")
		b.Transition(i, i-1, 1, "down")
	}
	// Make boundary states non-absorbing so the chain is well formed.
	b.Transition(0, 1, 1, "re")
	b.Transition(n, n-1, 1, "re")
	c := b.Build()
	p, err := c.HittingProbabilities(
		func(s int) bool { return s == n },
		func(s int) bool { return s == 0 },
	)
	if err != nil {
		t.Fatal(err)
	}
	r := 0.5
	for i := 1; i < n; i++ {
		want := (1 - math.Pow(r, float64(i))) / (1 - math.Pow(r, float64(n)))
		if !numeric.AlmostEqual(p[i], want, 1e-12) {
			t.Fatalf("P[%d]=%v want %v", i, p[i], want)
		}
	}
	if p[0] != 0 || p[n] != 1 {
		t.Fatalf("boundary probabilities %v", p)
	}
}

func TestHittingValidation(t *testing.T) {
	c := buildMM1K(1, 2, 2)
	if _, err := c.HittingProbabilities(
		func(s int) bool { return s == 0 },
		func(s int) bool { return s == 0 },
	); err == nil {
		t.Fatal("overlapping sets must fail")
	}
}

func TestLumpMergesTimerPhases(t *testing.T) {
	// A chain where two states are exactly symmetric: a 2-phase Erlang
	// "work" loop with identical phase rates collapses under lumping
	// when the phases emit the same action to the same blocks.
	b := NewBuilder()
	b.State("idle")
	b.State("ph0")
	b.State("ph1")
	b.Transition(0, 1, 3, "start")
	// Both phases return to idle at the same rate with the same action:
	// they are lumpable.
	b.Transition(1, 0, 5, "done")
	b.Transition(2, 0, 5, "done")
	b.Transition(0, 2, 3, "start") // idle can enter either phase
	c := b.Build()
	part, q, err := c.Lump(make(Partition, c.NumStates()))
	if err != nil {
		t.Fatal(err)
	}
	if q.NumStates() != 2 {
		t.Fatalf("quotient states %d want 2 (partition %v)", q.NumStates(), part)
	}
	if part[1] != part[2] {
		t.Fatalf("phases should share a block: %v", part)
	}
	// Quotient preserves throughput of "done".
	piQ, err := q.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	piC, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(q.ActionThroughput(piQ, "done"), c.ActionThroughput(piC, "done"), 1e-10) {
		t.Fatal("lumping changed the throughput")
	}
}

func TestLumpIrregularChainStaysIntact(t *testing.T) {
	// An asymmetric chain must not lump at all.
	b := NewBuilder()
	b.State("a")
	b.State("b")
	b.State("c")
	b.Transition(0, 1, 1, "x")
	b.Transition(1, 2, 2, "y")
	b.Transition(2, 0, 3, "z")
	c := b.Build()
	_, q, err := c.Lump(make(Partition, 3))
	if err != nil {
		t.Fatal(err)
	}
	if q.NumStates() != 3 {
		t.Fatalf("quotient states %d want 3", q.NumStates())
	}
}

func TestLumpMM1KTimerlessIsIdentityOnLevels(t *testing.T) {
	// M/M/1/K has no symmetric states (each level has distinct
	// signatures), so lumping is the identity; stationary measures of
	// quotient and original agree.
	c := buildMM1K(5, 10, 6)
	part, q, err := c.Lump(make(Partition, c.NumStates()))
	if err != nil {
		t.Fatal(err)
	}
	if q.NumStates() != c.NumStates() {
		t.Fatalf("unexpected lumping: %v", part)
	}
}

func TestLumpPartitionValidation(t *testing.T) {
	c := buildMM1K(1, 1, 1)
	if _, _, err := c.Lump(make(Partition, 1)); err == nil {
		t.Fatal("wrong partition size must fail")
	}
}

// TestHittingTimesSparsePathMatchesDense: a system larger than
// linalg.DenseCutoff goes to the Krylov kernel, whose answer matches
// the closed form and LU on the same system. The chain is an
// overloaded M/M/1/K ladder with K = 2000 and target K/2, so 1,000
// unknowns (rho > 1 keeps the fill times moderate and the linear
// system well conditioned; at rho < 1 the answer grows like
// (mu/lambda)^K and is numerically meaningless for any solver).
func TestHittingTimesSparsePathMatchesDense(t *testing.T) {
	lambda, mu := 12.0, 10.0
	k := 2000
	c := buildMM1K(lambda, mu, k)
	target := k / 2
	if target <= linalg.DenseCutoff {
		t.Fatalf("%d unknowns do not cross the dense cutoff %d", target, linalg.DenseCutoff)
	}
	h, err := c.ExpectedHittingTimes(func(s int) bool { return s >= target })
	if err != nil {
		t.Fatal(err)
	}
	m := make([]float64, target)
	m[0] = 1 / lambda
	for i := 1; i < target; i++ {
		m[i] = 1/lambda + mu/lambda*m[i-1]
	}
	var want float64
	for _, v := range m {
		want += v
	}
	if math.Abs(h[0]-want)/want > 1e-10 {
		t.Fatalf("sparse fill time %v want %v", h[0], want)
	}
	// The same system, states 0..target-1, by dense LU.
	q := c.Generator().ToDense()
	a := linalg.NewDense(target, target)
	b := make([]float64, target)
	for i := 0; i < target; i++ {
		b[i] = -1
		for j := 0; j < target; j++ {
			a.Set(i, j, q.At(i, j))
		}
	}
	lu, err := linalg.LUSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range lu {
		if math.Abs(h[i]-v) > 1e-10*v {
			t.Fatalf("state %d: Krylov %v, LU %v", i, h[i], v)
		}
	}
}

// TestHittingTimesUnreachableTargetErrors: a target without inflow
// makes the hitting-time system singular, which is an error on both
// sides of the dense cutoff, for hitting times and for hitting
// probabilities. (Dense LU alone returned huge values here: round-off
// leaves its last pivot small but not zero.)
func TestHittingTimesUnreachableTargetErrors(t *testing.T) {
	for _, n := range []int{100, 900} {
		// A ladder on 0..n-2; state n-1 only leaves, to state 0.
		b := NewBuilder()
		for i := 0; i < n; i++ {
			b.State(fmt.Sprintf("s%d", i))
		}
		for i := 0; i < n-2; i++ {
			b.Transition(i, i+1, 3, "up")
			b.Transition(i+1, i, 4, "down")
		}
		b.Transition(n-1, 0, 1, "leave")
		c := b.Build()
		target := func(s int) bool { return s == n-1 }
		if _, err := c.ExpectedHittingTimes(target); err == nil || !strings.Contains(err.Error(), "unreachable") {
			t.Fatalf("%d states: hitting times: want an unreachable-target error, got %v", n, err)
		}
		if _, err := c.HittingProbabilities(target, func(int) bool { return false }); err == nil {
			t.Fatalf("%d states: hitting probabilities: unreachable target accepted", n)
		}
	}
}

// TestConditionalHittingTimesSymmetricWalk: a symmetric walk on
// 0..N at rate 1 each way, started at i and conditioned to reach N
// before 0, does so with probability i/N after (N² − i²)/3 jumps of
// mean length 1/2 each, on both sides of the dense cutoff.
func TestConditionalHittingTimesSymmetricWalk(t *testing.T) {
	for _, n := range []int{100, 600} {
		b := NewBuilder()
		for i := 0; i <= n; i++ {
			b.State(fmt.Sprintf("s%d", i))
		}
		for i := 0; i < n; i++ {
			b.Transition(i, i+1, 1, "up")
			b.Transition(i+1, i, 1, "down")
		}
		c := b.Build()
		probs, times, err := c.ConditionalHittingTimes(
			func(s int) bool { return s == n },
			func(s int) bool { return s == 0 },
		)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		for i := 1; i < n; i++ {
			p := float64(i) / float64(n)
			want := float64(n*n-i*i) / 6
			if math.Abs(probs[i]-p) > 1e-12 || math.Abs(times[i]-want) > 1e-9*want {
				t.Fatalf("N=%d, i=%d: p %v, E[T] %v; want %v, %v", n, i, probs[i], times[i], p, want)
			}
		}
	}
}
