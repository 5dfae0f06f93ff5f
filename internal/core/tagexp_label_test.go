package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
)

// TestTagExpLabelFormat pins tagExpState.label to the fmt format it
// is built to reproduce, on every state of the box each shape's states
// live in and on multi-digit values of every field.
func TestTagExpLabelFormat(t *testing.T) {
	want := func(s tagExpState) string {
		sv := "w"
		if s.sv2 {
			sv = "s"
		}
		return fmt.Sprintf("Q1_%d.T1_%d|Q2_%d%s.T2_%d", s.q1, s.tm1, s.q2, sv, s.tm2)
	}
	check := func(s tagExpState) {
		if got := s.label(); got != want(s) {
			t.Fatalf("%+v: label %q, want %q", s, got, want(s))
		}
	}
	for _, m := range []TAGExp{
		NewTAGExp(5, 10, 12, 6, 10, 10),
		NewTAGExp(3, 4, 2, 2, 3, 5),
		{Lambda: 5, Mu: 10, T: 12, N: 6, K1: 10, K2: 10, LiteralFigure3: true},
	} {
		for q1 := 0; q1 <= m.K1; q1++ {
			for tm1 := 0; tm1 < m.phases(); tm1++ {
				for q2 := 0; q2 <= m.K2; q2++ {
					for _, sv2 := range []bool{false, true} {
						for tm2 := 0; tm2 < m.phases(); tm2++ {
							check(tagExpState{q1: q1, tm1: tm1, q2: q2, sv2: sv2, tm2: tm2})
						}
					}
				}
			}
		}
	}
	vals := []int{0, 1, 9, 10, 99, 100, 12345, 1<<31 - 1}
	for _, q1 := range vals {
		for _, tm1 := range vals {
			for _, q2 := range vals {
				for _, tm2 := range vals {
					check(tagExpState{q1: q1, tm1: tm1, q2: q2, sv2: q1%2 == 0, tm2: tm2})
					check(tagExpState{q1: q1, tm1: tm1, q2: q2, sv2: q1%2 != 0, tm2: tm2})
				}
			}
		}
	}
}

// TestMeasuresFromMatchesAnalyzeChain checks the split between solving
// and measure extraction: AnalyzeChain is a cold solve followed by
// MeasuresFrom, for TAGExp and for the product-derived TAGH2.
func TestMeasuresFromMatchesAnalyzeChain(t *testing.T) {
	exp := NewTAGExp(5, 10, 12, 6, 10, 10)
	h2 := NewTAGH2(5, dist.H2ForTAG(0.1, 0.9, 10), 12, 3, 6, 6)
	for _, m := range []interface {
		Build() *ctmc.Chain
		AnalyzeChain(*ctmc.Chain) (Measures, error)
		MeasuresFrom(*ctmc.Chain, []float64) Measures
	}{exp, h2} {
		c := m.Build()
		want, err := m.AnalyzeChain(c)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := c.SteadyState()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.MeasuresFrom(c, pi); got != want {
			t.Fatalf("%T: MeasuresFrom %+v, AnalyzeChain %+v", m, got, want)
		}
	}
}

// chainMeasures reads the two-node measures with ctmc.Chain's own
// sums, the way they were read before the measures kernel existed;
// q1 and q2 give each state's queue lengths.
func chainMeasures(c *ctmc.Chain, pi []float64, q1, q2 func(s int) int) Measures {
	out := Measures{States: c.NumStates()}
	out.L1 = c.Expectation(pi, func(s int) float64 { return float64(q1(s)) })
	out.L2 = c.Expectation(pi, func(s int) float64 { return float64(q2(s)) })
	out.X1 = c.ActionThroughput(pi, ActService1)
	out.X2 = c.ActionThroughput(pi, ActService2)
	out.LossArrival = c.ActionThroughput(pi, ActLossArrival)
	out.LossTransfer = c.ActionThroughput(pi, ActLossTransfer)
	out.TimeoutRate = c.ActionThroughput(pi, ActTimeout)
	out.Util1 = c.Probability(pi, func(s int) bool { return q1(s) > 0 })
	out.Util2 = c.Probability(pi, func(s int) bool { return q2(s) > 0 })
	out.finish()
	return out
}

// TestMeasuresKernelMatchesChainSums checks the measures kernel
// against ctmc.Chain's Expectation, ActionThroughput and Probability,
// field by field and bit for bit: through MeasuresFrom on the built
// chain, through Skeleton.Measures at the skeleton's own rates, and
// through Analyze. The Figure-8 shape is large enough that a sum run
// in another order changes the last bits.
func TestMeasuresKernelMatchesChainSums(t *testing.T) {
	exp := NewTAGExp(11, 10, 42, 6, 10, 10)
	lit := TAGExp{Lambda: 7, Mu: 10, T: 20, N: 3, K1: 5, K2: 5, LiteralFigure3: true}
	h2 := NewTAGH2(5, dist.H2ForTAG(0.1, 0.9, 10), 12, 3, 6, 6)
	het := NewTAGHetero(6, 10, 20, 15, 22, 3, 5, 5)
	type model interface {
		SkeletonModel
		Build() *ctmc.Chain
		Analyze() (Measures, error)
		MeasuresFrom(*ctmc.Chain, []float64) Measures
	}
	queues := func(c *ctmc.Chain, m any) (func(int) int, func(int) int) {
		switch m := m.(type) {
		case TAGExp:
			st := m.stateInfo(c)
			return func(s int) int { return st[s].q1 }, func(s int) int { return st[s].q2 }
		case TAGH2:
			st := m.product().decode(c)
			return func(s int) int { return st[s].nodes[0].q }, func(s int) int { return st[s].nodes[1].q }
		}
		panic("unreachable")
	}
	for _, m := range []model{exp, lit, h2} {
		c := m.Build()
		pi, err := c.SteadyState()
		if err != nil {
			t.Fatal(err)
		}
		q1, q2 := queues(c, m)
		want := chainMeasures(c, pi, q1, q2)
		if got := m.MeasuresFrom(c, pi); !sameBits(got, want) {
			t.Fatalf("%T: MeasuresFrom %+v, chain sums %+v", m, got, want)
		}
		sk := m.Skeleton()
		rate := make([]float64, len(sk.Edges))
		if err := sk.Rates(m.RateValues(), rate); err != nil {
			t.Fatal(err)
		}
		if got := sk.Measures(pi, rate); !sameBits(got, want) {
			t.Fatalf("%T: Skeleton.Measures %+v, chain sums %+v", m, got, want)
		}
		if got, err := m.Analyze(); err != nil || !sameBits(got, want) {
			t.Fatalf("%T: Analyze %+v (%v), chain sums %+v", m, got, err, want)
		}
	}
	// A product variant outside the skeleton models: Analyze reads the
	// skeleton's vectors, AnalyzeChain-style reading decodes the chain.
	p := het.product()
	c := p.build()
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	st := p.decode(c)
	want := chainMeasures(c, pi, func(s int) int { return st[s].nodes[0].q }, func(s int) int { return st[s].nodes[1].q })
	if got := p.measures(c, pi); !sameBits(got, want) {
		t.Fatalf("hetero: measures %+v, chain sums %+v", got, want)
	}
	if got, err := het.Analyze(); err != nil || !sameBits(got, want) {
		t.Fatalf("hetero: Analyze %+v (%v), chain sums %+v", got, err, want)
	}
}

// sameBits reports whether every field of two Measures has the same
// bits.
func sameBits(a, b Measures) bool {
	f := func(m Measures) []uint64 {
		return []uint64{uint64(m.States), math.Float64bits(m.L1), math.Float64bits(m.L2), math.Float64bits(m.L),
			math.Float64bits(m.X1), math.Float64bits(m.X2), math.Float64bits(m.Throughput),
			math.Float64bits(m.LossArrival), math.Float64bits(m.LossTransfer), math.Float64bits(m.Loss),
			math.Float64bits(m.W), math.Float64bits(m.Util1), math.Float64bits(m.Util2), math.Float64bits(m.TimeoutRate)}
	}
	return slices.Equal(f(a), f(b))
}
