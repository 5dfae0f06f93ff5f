package core

import (
	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
)

// RoundRobinAlloc is the third simple strategy of the paper's
// introduction ("assign jobs to service centres on a round robin
// basis"), as an exact CTMC: two bounded queues and a deterministic
// alternation bit. An arrival goes to the designated queue; if that
// queue is full it is lost (the pointer still advances). Exponential
// or two-branch H2 service, with the in-service branch sampled at
// service start as in the other models.
type RoundRobinAlloc struct {
	Lambda  float64
	Service dist.Distribution
	K       int
}

// NewRoundRobinTwoNode validates and returns the model.
func NewRoundRobinTwoNode(lambda float64, service dist.Distribution, k int) RoundRobinAlloc {
	m := RoundRobinAlloc{Lambda: lambda, Service: service, K: k}
	m.product() // validates
	return m
}

// product is the model as a two-node product that alternates between
// the nodes.
func (m RoundRobinAlloc) product() tagProduct {
	return baseline("roundrobin", routeAlternate, m.Lambda, m.Service, m.K)
}

// Build derives the CTMC. No program path calls it: the variants pin
// and the chain-free equivalence tests check the skeleton solve
// against the chain it builds.
func (m RoundRobinAlloc) Build() *ctmc.Chain { return m.product().build() }

// Analyze solves the model.
func (m RoundRobinAlloc) Analyze() (Measures, error) { return m.product().analyze() }
