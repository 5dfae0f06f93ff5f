package core

import (
	"fmt"

	"pepatags/internal/ctmc"
)

// TAGHetero generalises the Figure 3 model to heterogeneous nodes, the
// extension Section 3 sketches: "if the system is heterogeneous, then
// it would be necessary to introduce new rates for the ticks of the
// repeated service and for service2". Node 1 serves at Mu1 with an
// N-phase timeout at phase rate T1; node 2 repeats at phase rate T2
// (N phases) and serves the residual at Mu2.
//
// ServeAloneToCompletion enables the other Section 3 variant: when the
// node-1 queue holds a single job, the timeout is suppressed and the
// job is served to completion unless another arrival re-arms the
// timer ("removing the timeout action from Queue1_1").
type TAGHetero struct {
	Lambda   float64
	Mu1, Mu2 float64
	T1, T2   float64
	N        int
	K1, K2   int

	ServeAloneToCompletion bool
}

// NewTAGHetero validates and returns the model.
func NewTAGHetero(lambda, mu1, mu2, t1, t2 float64, n, k1, k2 int) TAGHetero {
	m := TAGHetero{Lambda: lambda, Mu1: mu1, Mu2: mu2, T1: t1, T2: t2, N: n, K1: k1, K2: k2}
	m.validate()
	return m
}

func (m TAGHetero) validate() {
	if m.Lambda <= 0 || m.Mu1 <= 0 || m.Mu2 <= 0 || m.T1 <= 0 || m.T2 <= 0 ||
		m.N < 1 || m.K1 < 1 || m.K2 < 1 {
		panic(fmt.Sprintf("core: invalid TAGHetero parameters %+v", m))
	}
}

// product binds node 1's rates to the Mu/T slots and node 2's to the
// Node2Mu/Node2T slots.
func (m TAGHetero) product() tagProduct {
	m.validate()
	nodes := twoNode(m.N, m.K1, m.K2, false)
	nodes[0].alone = m.ServeAloneToCompletion
	nodes[1].clock, nodes[1].mu = SlotNode2T, []RateSlot{SlotNode2Mu}
	return tagProduct{shape: Shape{Kind: "taghetero", Phases: m.N, K1: m.K1, K2: m.K2}, phases: m.N, nodes: nodes,
		rates: RateValues{Lambda: m.Lambda, Mu: m.Mu1, T: m.T1, Node2Mu: m.Mu2, Node2T: m.T2}}
}

// Build derives the reachable CTMC: the Figure 3 state shape with
// per-node rates. No program path calls it: the variants pin and the
// chain-free equivalence tests check the skeleton solve against the
// chain it builds.
func (m TAGHetero) Build() *ctmc.Chain { return m.product().build() }

// Analyze solves the model.
func (m TAGHetero) Analyze() (Measures, error) { return m.product().analyze() }
