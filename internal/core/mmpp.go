package core

import (
	"fmt"

	"pepatags/internal/ctmc"
)

// MMPP2 parameterises a two-phase Markov-modulated Poisson arrival
// stream for the analytic bursty-arrival study of Section 7: arrivals
// at Rate1 in phase 1 and Rate2 in phase 2, phase flips at Switch1
// (1 -> 2) and Switch2 (2 -> 1).
type MMPP2 struct {
	Rate1, Rate2     float64
	Switch1, Switch2 float64
}

func (a MMPP2) validate() {
	if a.Rate1 <= 0 || a.Rate2 < 0 || a.Switch1 <= 0 || a.Switch2 <= 0 {
		panic(fmt.Sprintf("core: invalid MMPP2 %+v", a))
	}
}

// MeanRate is the stationary arrival rate.
func (a MMPP2) MeanRate() float64 {
	p1 := a.Switch2 / (a.Switch1 + a.Switch2)
	return p1*a.Rate1 + (1-p1)*a.Rate2
}

// BurstyMMPP2 builds an MMPP with the given mean rate whose phase-1
// rate is burst times the mean (and phase-2 rate is scaled down to
// preserve the mean), flipping phases at the given rate. burst > 1.
func BurstyMMPP2(mean, burst, flip float64) MMPP2 {
	if burst <= 1 || mean <= 0 || flip <= 0 {
		panic("core: BurstyMMPP2 needs burst > 1, mean > 0, flip > 0")
	}
	r1 := burst * mean
	r2 := 2*mean - r1 // equal phase occupancy: (r1 + r2)/2 = mean
	if r2 < 0 {
		r2 = 0
	}
	return MMPP2{Rate1: r1, Rate2: r2, Switch1: flip, Switch2: flip}
}

// TAGExpMMPP is the Figure 3 TAG model with MMPP-2 arrivals: the exact
// CTMC counterpart of the paper's Section 7 conjecture that bursty
// traffic hurts TAG. The state gains the modulating phase.
type TAGExpMMPP struct {
	Arrivals MMPP2
	Mu       float64
	T        float64
	N        int
	K1, K2   int
}

// NewTAGExpMMPP validates and returns the model.
func NewTAGExpMMPP(arr MMPP2, mu, t float64, n, k1, k2 int) TAGExpMMPP {
	arr.validate()
	if mu <= 0 || t <= 0 || n < 1 || k1 < 1 || k2 < 1 {
		panic("core: invalid TAGExpMMPP parameters")
	}
	return TAGExpMMPP{Arrivals: arr, Mu: mu, T: t, N: n, K1: k1, K2: k2}
}

// bind sets the arrival phase rates (Lambda/Lambda2) and switch rates
// of a binding.
func (a MMPP2) bind(v RateValues) RateValues {
	v.Lambda, v.Lambda2, v.Switch1, v.Switch2 = a.Rate1, a.Rate2, a.Switch1, a.Switch2
	return v
}

func (m TAGExpMMPP) product() tagProduct {
	return tagProduct{shape: Shape{Kind: "tagexpmmpp", Phases: m.N, K1: m.K1, K2: m.K2}, phases: m.N, mmpp: true,
		rates: m.Arrivals.bind(RateValues{Mu: m.Mu, T: m.T}), nodes: twoNode(m.N, m.K1, m.K2, false)}
}

// Build derives the CTMC (the Poisson model's space times the two
// arrival phases). An arrival rate of zero removes that phase's
// arrival edges.
func (m TAGExpMMPP) Build() *ctmc.Chain { return m.product().build() }

// Analyze solves the model.
func (m TAGExpMMPP) Analyze() (Measures, error) { return m.product().analyze() }

// ShortestQueueMMPP is the JSQ baseline under the same MMPP-2
// arrivals, for like-for-like burstiness comparisons.
type ShortestQueueMMPP struct {
	Arrivals MMPP2
	Mu       float64
	K        int
}

type jsqMMPPState struct {
	phase  int
	q1, q2 int
}

func (s jsqMMPPState) label() string { return fmt.Sprintf("P%d|A%d|B%d", s.phase, s.q1, s.q2) }

// Build derives the CTMC.
func (m ShortestQueueMMPP) Build() *ctmc.Chain {
	m.Arrivals.validate()
	if m.Mu <= 0 || m.K < 1 {
		panic("core: invalid ShortestQueueMMPP")
	}
	b := ctmc.NewBuilder()
	init := jsqMMPPState{}
	b.State(init.label())
	frontier := []jsqMMPPState{init}
	type edge struct {
		from, to jsqMMPPState
		rate     float64
		action   string
	}
	var edges []edge
	rates := [2]float64{m.Arrivals.Rate1, m.Arrivals.Rate2}
	switches := [2]float64{m.Arrivals.Switch1, m.Arrivals.Switch2}
	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		emit := func(to jsqMMPPState, rate float64, action string) {
			if rate <= 0 {
				return
			}
			if !b.HasState(to.label()) {
				b.State(to.label())
				frontier = append(frontier, to)
			}
			edges = append(edges, edge{from: s, to: to, rate: rate, action: action})
		}
		flip := s
		flip.phase = 1 - s.phase
		emit(flip, switches[s.phase], "switch")

		lambda := rates[s.phase]
		if lambda > 0 {
			switch {
			case s.q1 >= m.K && s.q2 >= m.K:
				emit(s, lambda, ActLossArrival)
			case s.q1 < s.q2 || s.q2 >= m.K:
				to := s
				to.q1++
				emit(to, lambda, ActArrival)
			case s.q2 < s.q1 || s.q1 >= m.K:
				to := s
				to.q2++
				emit(to, lambda, ActArrival)
			default:
				a := s
				a.q1++
				emit(a, lambda/2, ActArrival)
				bq := s
				bq.q2++
				emit(bq, lambda/2, ActArrival)
			}
		}
		if s.q1 > 0 {
			to := s
			to.q1--
			emit(to, m.Mu, ActService1)
		}
		if s.q2 > 0 {
			to := s
			to.q2--
			emit(to, m.Mu, ActService2)
		}
	}
	for _, e := range edges {
		b.Transition(b.State(e.from.label()), b.State(e.to.label()), e.rate, e.action)
	}
	return b.Build()
}

// Analyze solves the model.
func (m ShortestQueueMMPP) Analyze() (Measures, error) {
	c := m.Build()
	pi, err := c.SteadyState()
	if err != nil {
		return Measures{}, err
	}
	states := make([]jsqMMPPState, c.NumStates())
	for i := range states {
		var s jsqMMPPState
		if _, err := fmt.Sscanf(c.Label(i), "P%d|A%d|B%d", &s.phase, &s.q1, &s.q2); err != nil {
			return Measures{}, fmt.Errorf("core: decode %q: %w", c.Label(i), err)
		}
		states[i] = s
	}
	out := Measures{States: c.NumStates()}
	out.L1 = c.Expectation(pi, func(s int) float64 { return float64(states[s].q1) })
	out.L2 = c.Expectation(pi, func(s int) float64 { return float64(states[s].q2) })
	out.X1 = c.ActionThroughput(pi, ActService1)
	out.X2 = c.ActionThroughput(pi, ActService2)
	out.LossArrival = c.ActionThroughput(pi, ActLossArrival)
	out.Util1 = c.Probability(pi, func(s int) bool { return states[s].q1 > 0 })
	out.Util2 = c.Probability(pi, func(s int) bool { return states[s].q2 > 0 })
	out.finish()
	return out, nil
}
