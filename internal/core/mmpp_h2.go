package core

import (
	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
)

// TAGH2MMPP combines the paper's two stress axes analytically:
// hyper-exponential (heavy-tailed) service *and* bursty MMPP-2
// arrivals — the regime where TAG's strengths (size filtering) and
// weaknesses (all bursts land on node 1) collide. The CTMC is the
// Figure 5 model's space times the two arrival phases.
type TAGH2MMPP struct {
	Arrivals MMPP2
	Service  dist.HyperExp
	T        float64
	N        int
	K1, K2   int
}

// NewTAGH2MMPP validates and returns the model. No program path calls
// it: it models the paper's two stress axes together (Section 3.2's
// H2 demand under Section 7's bursty arrivals), pinned by the
// variants pin.
func NewTAGH2MMPP(arr MMPP2, service dist.HyperExp, t float64, n, k1, k2 int) TAGH2MMPP {
	arr.validate()
	if t <= 0 || n < 1 || k1 < 1 || k2 < 1 {
		panic("core: invalid TAGH2MMPP parameters")
	}
	if len(service.Alpha) != 2 {
		panic("core: TAGH2MMPP requires a two-branch hyper-exponential")
	}
	return TAGH2MMPP{Arrivals: arr, Service: service, T: t, N: n, K1: k1, K2: k2}
}

func (m TAGH2MMPP) product() tagProduct {
	h2 := TAGH2{Service: m.Service, T: m.T, N: m.N}.RateValues()
	return tagProduct{shape: Shape{Kind: "tagh2mmpp", Phases: m.N, K1: m.K1, K2: m.K2}, phases: m.N, mmpp: true,
		rates: m.Arrivals.bind(h2), nodes: twoNode(m.N, m.K1, m.K2, true)}
}

// Build derives the CTMC (the Figure 5 model's space times the two
// arrival phases). No program path calls it: the variants pin and the
// chain-free equivalence tests check the skeleton solve against the
// chain it builds.
func (m TAGH2MMPP) Build() *ctmc.Chain { return m.product().build() }

// Analyze solves the model.
func (m TAGH2MMPP) Analyze() (Measures, error) { return m.product().analyze() }
