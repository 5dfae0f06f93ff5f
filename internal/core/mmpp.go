package core

import (
	"fmt"

	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
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

// MeanRate is the stationary arrival rate. No program path calls it:
// the MMPP variant tests check flow conservation against it.
func (a MMPP2) MeanRate() float64 {
	p1 := a.Switch2 / (a.Switch1 + a.Switch2)
	return p1*a.Rate1 + (1-p1)*a.Rate2
}

// BurstyMMPP2 builds an MMPP with the given mean rate whose phase-1
// rate is burst times the mean (and phase-2 rate is scaled down to
// preserve the mean), flipping phases at the given rate. burst > 1.
// No program path calls it: the variants pin builds its Section 7
// arrival streams with it.
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

// NewTAGExpMMPP validates and returns the model. No program path
// calls it: it models the paper's Section 7 bursty-arrival
// conjecture, pinned by the variants pin.
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
// arrival edges. No program path calls it: the variants pin and the
// chain-free equivalence tests check the skeleton solve against the
// chain it builds.
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

// product is the model as a two-node exponential product routed to the
// shorter queue, with MMPP-2 arrivals.
func (m ShortestQueueMMPP) product() tagProduct {
	m.Arrivals.validate()
	if m.Mu <= 0 || m.K < 1 {
		panic("core: invalid ShortestQueueMMPP")
	}
	p := baseline("shortestqueuemmpp", routeShortest, m.Arrivals.Rate1, dist.NewExponential(m.Mu), m.K)
	p.mmpp, p.rates = true, m.Arrivals.bind(p.rates)
	return p
}

// Build derives the CTMC. No program path calls it: the variants pin
// and the chain-free equivalence tests check the skeleton solve
// against the chain it builds.
func (m ShortestQueueMMPP) Build() *ctmc.Chain { return m.product().build() }

// Analyze solves the model.
func (m ShortestQueueMMPP) Analyze() (Measures, error) { return m.product().analyze() }
