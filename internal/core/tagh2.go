package core

import (
	"fmt"

	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
)

// TAGH2 is the two-node TAG system with hyper-exponential (H2)
// service demand, the paper's Figure 5 / Section 3.2 model.
//
// A job is "short" (branch 1, rate Mu1) with probability Alpha and
// "long" (branch 2, rate Mu2) otherwise; the branch is sampled when
// the job reaches the head of the node-1 queue. A job that times out
// carries no explicit type to node 2 — instead, after its Erlang
// repeat period the residual service branch is sampled with the
// re-weighted probability alpha' (dist.ResidualH2AfterErlang), exactly
// as the paper's repeatservice branching prescribes.
//
// Following Figure 5 (unlike Figure 3), the node-2 timer does not tick
// during the residual service: each job's repeat period is a full
// Erlang.
type TAGH2 struct {
	Lambda  float64
	Service dist.HyperExp // two-branch H2
	T       float64       // phase rate of the Erlang timeout clock
	N       int           // number of Erlang phases in the timeout
	K1, K2  int
}

// NewTAGH2 validates and returns the model.
func NewTAGH2(lambda float64, service dist.HyperExp, t float64, n, k1, k2 int) TAGH2 {
	m := TAGH2{Lambda: lambda, Service: service, T: t, N: n, K1: k1, K2: k2}
	m.validate()
	return m
}

func (m TAGH2) validate() {
	if m.Lambda <= 0 || m.T <= 0 || m.N < 1 || m.K1 < 1 || m.K2 < 1 {
		panic(fmt.Sprintf("core: invalid TAGH2 parameters %+v", m))
	}
	if len(m.Service.Alpha) != 2 {
		panic("core: TAGH2 requires a two-branch hyper-exponential service")
	}
	if m.Service.Mu[0] <= 0 || m.Service.Mu[1] <= 0 || m.Service.Alpha[0] < 0 || m.Service.Alpha[0] > 1 {
		panic(fmt.Sprintf("core: invalid H2 service %+v", m.Service))
	}
}

// AlphaPrime is the residual short-job probability after surviving the
// Erlang timeout (N phases at rate T, matching the model's timer).
func (m TAGH2) AlphaPrime() float64 {
	return dist.ResidualH2AfterErlang(m.Service, m.N, m.T).Alpha[0]
}

// Shape returns the canonical model structure: everything that
// determines the reachable state space, with the rates abstracted away.
// For H2 service that includes the degeneracy mask of the branch
// probabilities (an alpha of exactly 0 or 1 removes edges).
func (m TAGH2) Shape() Shape {
	m.validate()
	return Shape{Kind: "tagh2", Phases: m.N, K1: m.K1, K2: m.K2, Zeros: m.RateValues().zeroMask()}
}

// RateValues returns this instance's binding for the shape's rate slots
// and branch coefficients. AlphaPrime is the residual short-job
// probability, a derived value that depends on (Service, N, T) but not
// on the structure beyond its degeneracy class.
func (m TAGH2) RateValues() RateValues {
	return RateValues{
		Lambda:     m.Lambda,
		T:          m.T,
		Mu1:        m.Service.Mu[0],
		Mu2:        m.Service.Mu[1],
		Alpha:      m.Service.Alpha[0],
		AlphaPrime: m.AlphaPrime(),
	}
}

// product is the model as a parameterisation of the shared TAG
// product: H2 branches sampled at alpha on reaching node 1's server and
// at alpha' when the node-2 repeat period ends.
func (m TAGH2) product() tagProduct {
	return tagProduct{shape: m.Shape(), phases: m.N, rates: m.RateValues(),
		nodes: twoNode(m.N, m.K1, m.K2, true)}
}

// Skeleton derives the state space and symbolic transition structure.
// Every model with the same Shape — including the same
// branch-probability degeneracy mask — yields the same skeleton; Build
// instantiates it with this instance's rates.
func (m TAGH2) Skeleton() *Skeleton { return m.product().skeleton() }

// Build derives the reachable CTMC: the skeleton instantiated with
// this instance's rates. No program path calls it: the variants pin
// and the chain-free equivalence tests check the skeleton solve
// against the chain it builds.
func (m TAGH2) Build() *ctmc.Chain { return m.product().build() }

// Analyze solves the model.
func (m TAGH2) Analyze() (Measures, error) { return m.product().analyze() }

// AnalyzeChain solves a chain built for exactly this model instance —
// by Build, or by a cached skeleton instantiated at this instance's
// rates — from a cold start and extracts the paper's measures from it.
func (m TAGH2) AnalyzeChain(c *ctmc.Chain) (Measures, error) {
	return m.product().analyzeChain(c)
}

// MeasuresFrom extracts the paper's measures from a chain built for
// exactly this model instance at its stationary distribution pi,
// however pi was obtained. No program path calls it: the sweep
// continuation and equivalence tests read chain-path measures with
// it.
func (m TAGH2) MeasuresFrom(c *ctmc.Chain, pi []float64) Measures {
	return m.product().measures(c, pi)
}
