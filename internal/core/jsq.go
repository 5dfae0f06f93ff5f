package core

import (
	"fmt"

	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
)

// ShortestQueue is the join-the-shortest-queue strategy of the paper's
// Appendix B: two bounded queues; an arrival joins the strictly
// shorter queue, splits evenly on a tie, and is lost only when both
// queues are full. Service is exponential or two-branch
// hyper-exponential; in the H2 case the branch of the job in service
// is sampled when it starts service (each server tracks its current
// job's branch).
type ShortestQueue struct {
	Lambda  float64
	Service dist.Distribution // Exponential or two-branch HyperExp
	K       int               // per-queue capacity
}

// NewShortestQueue validates and returns the model.
func NewShortestQueue(lambda float64, service dist.Distribution, k int) ShortestQueue {
	m := ShortestQueue{Lambda: lambda, Service: service, K: k}
	m.product() // validates
	return m
}

// product is the model as a two-node product routed to the shorter
// queue.
func (m ShortestQueue) product() tagProduct {
	return baseline("shortestqueue", routeShortest, m.Lambda, m.Service, m.K)
}

// Build derives the CTMC.
func (m ShortestQueue) Build() *ctmc.Chain { return m.product().build() }

// Analyze solves the model.
func (m ShortestQueue) Analyze() (Measures, error) { return m.product().analyze() }

// baseline returns a two-node product with capacity k per node whose
// nodes serve to completion, dispatching arrivals by rt. Service is
// exponential or two-branch H2, normalised to (alpha, mu1, mu2) with
// the exponential as the alpha = 1 case; a job samples its branch when
// it starts service.
func baseline(kind string, rt route, lambda float64, service dist.Distribution, k int) tagProduct {
	if lambda <= 0 || k < 1 {
		panic(fmt.Sprintf("core: invalid %s parameters: lambda %v, K %d", kind, lambda, k))
	}
	v := RateValues{Lambda: lambda}
	switch s := service.(type) {
	case dist.Exponential:
		v.Alpha, v.Mu1, v.Mu2 = 1, s.Mu, s.Mu
	case dist.HyperExp:
		if len(s.Alpha) != 2 {
			panic("core: " + kind + " supports two-branch hyper-exponentials")
		}
		v.Alpha, v.Mu1, v.Mu2 = s.Alpha[0], s.Mu[0], s.Mu[1]
	default:
		panic(fmt.Sprintf("core: unsupported service distribution %T", service))
	}
	node := func(done string) nodeSpec {
		return nodeSpec{k: k, mu: []RateSlot{SlotMu1, SlotMu2}, branch: []Coeff{CoeffAlpha, CoeffOneMinusAlpha},
			act: nodeActions{service: done}}
	}
	return tagProduct{shape: Shape{Kind: kind, Phases: 1, K1: k, K2: k}, phases: 1, route: rt, rates: v,
		nodes: []nodeSpec{node(ActService1), node(ActService2)}}
}
