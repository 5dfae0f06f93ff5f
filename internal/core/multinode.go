package core

import (
	"fmt"

	"pepatags/internal/ctmc"
)

// TAGMultiNode extends the paper's two-node model to M >= 2 nodes with
// exponential service, the generalisation the paper notes is "a simple
// matter" (Section 3). Node j (0-based) kills jobs whose service
// exceeds its Erlang timeout (N phases at rate T) and passes them to
// node j+1; the last node serves to completion. A job entering node j
// must first repeat the work it received at nodes 0..j-1 — modelled as
// an Erlang with j*N phases at rate T — before its residual
// (memoryless) service races node j's timeout.
//
// Timers freeze while another stage is active (the Figure 5
// convention), keeping each node's head-of-line job description to a
// single phase counter.
type TAGMultiNode struct {
	Lambda float64
	Mu     float64
	T      float64
	N      int
	K      []int // per-node capacities, len >= 2
}

// NewTAGMultiNode validates and returns the model.
func NewTAGMultiNode(lambda, mu, t float64, n int, k []int) TAGMultiNode {
	m := TAGMultiNode{Lambda: lambda, Mu: mu, T: t, N: n, K: k}
	m.validate()
	return m
}

func (m TAGMultiNode) validate() {
	if m.Lambda <= 0 || m.Mu <= 0 || m.T <= 0 || m.N < 1 || len(m.K) < 2 {
		panic(fmt.Sprintf("core: invalid TAGMultiNode parameters %+v", m))
	}
	for _, k := range m.K {
		if k < 1 {
			panic("core: node capacity must be >= 1")
		}
	}
}

// product chains the nodes: node j repeats j*N phases of upstream work
// and, unless it is the last, times out into node j+1.
func (m TAGMultiNode) product() tagProduct {
	m.validate()
	nodes := make([]nodeSpec, len(m.K))
	for j, k := range m.K {
		nodes[j] = nodeSpec{k: k, repeat: j * m.N, timeout: j < len(m.K)-1, clock: SlotT,
			mu: []RateSlot{SlotMu}, branch: []Coeff{CoeffOne}, act: nodeActions{
				service: fmt.Sprintf("service%d", j), tick: fmt.Sprintf("tick%d", j),
				timeout: fmt.Sprintf("transfer%d", j), repeat: fmt.Sprintf("repeat%d", j),
				begin: fmt.Sprintf("beginservice%d", j)}}
	}
	return tagProduct{shape: Shape{Kind: "tagmultinode", Phases: m.N, K1: m.K[0], K2: m.K[1]}, phases: m.N,
		rates: RateValues{Lambda: m.Lambda, Mu: m.Mu, T: m.T}, nodes: nodes}
}

// Build explores the reachable CTMC. State spaces grow quickly with
// M, N and K; intended for small configurations. No program path
// calls it: the variants pin and the chain-free equivalence tests
// check the skeleton solve against the chain it builds.
func (m TAGMultiNode) Build() *ctmc.Chain { return m.product().build() }

// MultiMeasures are the stationary measures of the multi-node system.
type MultiMeasures struct {
	States     int
	L          []float64 // per-node mean queue length
	LTotal     float64
	Throughput float64 // total completion rate
	Loss       float64
	W          float64
}

// Analyze solves the model.
func (m TAGMultiNode) Analyze() (MultiMeasures, error) {
	return m.product().multiMeasures()
}
