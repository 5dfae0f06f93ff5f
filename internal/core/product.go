package core

import (
	"fmt"

	"pepatags/internal/ctmc"
	"pepatags/internal/numeric"
)

// The TAG product derivation. Every TAG variant except the TAGExp
// oracle — H2 demand, heterogeneous nodes, serve-alone-to-completion,
// MMPP-2 arrivals and more than two nodes — is one product of an
// arrival process (Poisson or MMPP-2), per-node phase-type service and
// an Erlang timeout. A variant is a tagProduct parameterisation; this
// file derives its skeleton and reads its measures.
//
// A product state is the arrival phase times, per node, the queue
// length and the head-of-line job's H2 branch, stage and phase. A job
// reaching node j's server first repeats the work it received upstream
// (an Erlang of repeat phases at the node's clock rate; none at node
// 1), then samples its H2 branch and races its service against an
// N-phase timeout at the same clock rate. A timeout kills the job and
// passes it to node j+1, or loses it when that queue is full; the last
// node serves to completion. Clocks freeze outside their stage (the
// Figure 5 convention), so one phase counter per node suffices.

// Head-of-line stages.
const (
	stageRepeat = 0 // repeating upstream work; phase counts the repeat Erlang down
	stageRace   = 1 // service racing the timeout; phase counts the timer down
)

// actSwitch flips the MMPP-2 arrival phase.
const actSwitch = "switch"

// prodNode is one node's part of a product state. branch is the head's
// H2 branch (1-based) once sampled, 0 while the node is idle or the
// head repeats.
type prodNode struct {
	q, branch, stage, phase int
}

// prodState is one product state: the arrival phase (0 or 1) and the
// nodes in routing order.
type prodState struct {
	arrival int
	nodes   []prodNode
}

func (s prodState) clone() prodState {
	s.nodes = append([]prodNode(nil), s.nodes...)
	return s
}

func (s prodState) label() string {
	b := fmt.Appendf(nil, "P%d", s.arrival)
	for _, n := range s.nodes {
		b = fmt.Appendf(b, "|%d.%d.%d.%d", n.q, n.branch, n.stage, n.phase)
	}
	return string(b)
}

// nodeActions names a node's transitions.
type nodeActions struct {
	service, tick, timeout, repeat, begin string
}

// nodeSpec is one node of a product.
type nodeSpec struct {
	k       int        // queue capacity
	repeat  int        // repeat-Erlang phases of a new head; > 0 beyond node 1, since a transfer keeps the idle head
	timeout bool       // race service against the timeout (false: serve to completion)
	alone   bool       // no timeout while the head is alone (Section 3 variant)
	clock   RateSlot   // phase rate of the repeat and timeout clocks
	mu      []RateSlot // service rate per H2 branch (one entry: exponential)
	branch  []Coeff    // branch probabilities, sampled when the head starts its race
	act     nodeActions
}

// tagProduct is a TAG variant as a product parameterisation. The rates
// only decide which edges exist (a zero slot or coefficient removes
// its edges); the structure is otherwise rate-free.
type tagProduct struct {
	shape  Shape
	phases int  // N, the timeout's Erlang phases
	mmpp   bool // MMPP-2 arrivals (phase slots Lambda/Lambda2, switches Switch1/Switch2)
	nodes  []nodeSpec
	rates  RateValues
}

// twoNode returns the Figure 3 / Figure 5 topology with exponential or
// H2 service: node 1 races its service against the N-phase timeout,
// node 2 repeats N phases and serves the residual to completion. The
// H2 branch is sampled at alpha at node 1 and at alpha' at node 2.
func twoNode(n, k1, k2 int, h2 bool) []nodeSpec {
	mu, br1, br2 := []RateSlot{SlotMu}, []Coeff{CoeffOne}, []Coeff{CoeffOne}
	if h2 {
		mu = []RateSlot{SlotMu1, SlotMu2}
		br1 = []Coeff{CoeffAlpha, CoeffOneMinusAlpha}
		br2 = []Coeff{CoeffAlphaPrime, CoeffOneMinusAlphaPrime}
	}
	return []nodeSpec{
		{k: k1, timeout: true, clock: SlotT, mu: mu, branch: br1,
			act: nodeActions{service: ActService1, tick: ActTick1, timeout: ActTimeout}},
		{k: k2, repeat: n, clock: SlotT, mu: mu, branch: br2,
			act: nodeActions{service: ActService2, repeat: ActTick2, begin: ActRepeatService}},
	}
}

// idle is node j's empty configuration: the head slot is reset to the
// start of the node's first stage.
func (p tagProduct) idle(j int) prodNode {
	if r := p.nodes[j].repeat; r > 0 {
		return prodNode{stage: stageRepeat, phase: r - 1}
	}
	return prodNode{stage: stageRace, phase: p.phases - 1}
}

func (p tagProduct) initial() prodState {
	s := prodState{nodes: make([]prodNode, len(p.nodes))}
	for j := range s.nodes {
		s.nodes[j] = p.idle(j)
	}
	return s
}

// emitFunc receives one symbolic transition of a state.
type emitFunc func(to prodState, slot RateSlot, coeff Coeff, action string)

// race starts node j's head on its race stage, one edge per H2 branch.
func (p tagProduct) race(to prodState, j int, slot RateSlot, action string, emit emitFunc) {
	for b, c := range p.nodes[j].branch {
		next := to.clone()
		next.nodes[j].branch, next.nodes[j].stage, next.nodes[j].phase = b+1, stageRace, p.phases-1
		emit(next, slot, c, action)
	}
}

// depart removes node j's head; the next job (if any) reaches the
// server.
func (p tagProduct) depart(to prodState, j int, slot RateSlot, action string, emit emitFunc) {
	q := to.nodes[j].q - 1
	to.nodes[j] = p.idle(j)
	to.nodes[j].q = q
	if q > 0 && p.nodes[j].repeat == 0 {
		p.race(to, j, slot, action, emit)
		return
	}
	emit(to, slot, CoeffOne, action)
}

// step emits every transition out of s, in derivation order: arrival
// phase switch, arrival, then each node's head.
func (p tagProduct) step(s prodState, emit emitFunc) {
	slots, coeffs := p.rates.slots(), p.rates.coeffs()
	emitLive := func(to prodState, slot RateSlot, coeff Coeff, action string) {
		if slots[slot] != 0 && coeffs[coeff] != 0 { //vet:allow floatcmp: structural sparsity
			emit(to, slot, coeff, action)
		}
	}
	arrive := SlotLambda
	if p.mmpp {
		flip, sw := s.clone(), SlotSwitch1
		flip.arrival = 1 - s.arrival
		if s.arrival == 1 {
			arrive, sw = SlotLambda2, SlotSwitch2
		}
		emitLive(flip, sw, CoeffOne, actSwitch)
	}
	if s.nodes[0].q < p.nodes[0].k {
		to := s.clone()
		to.nodes[0].q++
		if to.nodes[0].q == 1 && p.nodes[0].repeat == 0 {
			p.race(to, 0, arrive, ActArrival, emitLive)
		} else {
			emitLive(to, arrive, CoeffOne, ActArrival)
		}
	} else {
		emitLive(s, arrive, CoeffOne, ActLossArrival)
	}
	for j, spec := range p.nodes {
		n := s.nodes[j]
		switch {
		case n.q == 0:
		case n.stage == stageRepeat && n.phase > 0:
			to := s.clone()
			to.nodes[j].phase--
			emitLive(to, spec.clock, CoeffOne, spec.act.repeat)
		case n.stage == stageRepeat:
			p.race(s, j, spec.clock, spec.act.begin, emitLive)
		default:
			p.depart(s.clone(), j, spec.mu[n.branch-1], spec.act.service, emitLive)
			if !spec.timeout {
				break
			}
			if n.phase > 0 {
				to := s.clone()
				to.nodes[j].phase--
				emitLive(to, spec.clock, CoeffOne, spec.act.tick)
			} else if !(spec.alone && n.q == 1) {
				// Timeout: the head restarts at node j+1, which (having a
				// repeat period) keeps its idle head configuration.
				to, action := s.clone(), ActLossTransfer
				if to.nodes[j+1].q < p.nodes[j+1].k {
					to.nodes[j+1].q++
					action = spec.act.timeout
				}
				p.depart(to, j, spec.clock, action, emitLive)
			}
		}
	}
}

// skeleton derives the reachable state space breadth-first.
func (p tagProduct) skeleton() *Skeleton {
	b := newSkeletonBuilder()
	frontier := []prodState{p.initial()}
	b.state(frontier[0].label())
	for from := 0; from < len(frontier); from++ {
		p.step(frontier[from], func(to prodState, slot RateSlot, coeff Coeff, action string) {
			i, fresh := b.state(to.label())
			if fresh {
				frontier = append(frontier, to)
			}
			b.edge(from, i, slot, coeff, action)
		})
	}
	return b.finish(p.shape)
}

// build instantiates the skeleton at the product's own rates.
func (p tagProduct) build() *ctmc.Chain {
	c, err := p.skeleton().Instantiate(p.rates)
	if err != nil {
		panic("core: " + err.Error()) // unreachable: the variant vetted its rates
	}
	return c
}

// analyze builds and solves the two-node product.
func (p tagProduct) analyze() (Measures, error) { return p.analyzeChain(p.build()) }

// analyzeChain solves a chain derived from this product from a cold
// start and reads the two-node measures off the result.
func (p tagProduct) analyzeChain(c *ctmc.Chain) (Measures, error) {
	pi, err := c.SteadyState()
	if err != nil {
		return Measures{}, err
	}
	return p.measures(c, pi), nil
}

// decode recovers every state of a chain derived from this product by
// replaying the derivation against the chain's transitions, which
// Instantiate keeps in derivation order: state i's emitted successors
// are its transitions, in order. No label is parsed.
func (p tagProduct) decode(c *ctmc.Chain) []prodState {
	states := make([]prodState, c.NumStates())
	trs := c.Transitions()
	states[0] = p.initial()
	k := 0
	for i := range states {
		p.step(states[i], func(to prodState, _ RateSlot, _ Coeff, action string) {
			if k >= len(trs) || trs[k].From != i || trs[k].Action != action {
				panic(fmt.Sprintf("core: chain transition %d does not match the model's derivation", k))
			}
			if states[trs[k].To].nodes == nil {
				states[trs[k].To] = to
			}
			k++
		})
	}
	return states
}

// solve returns the stationary distribution of a chain derived from
// this product and each state's decoded product state.
func (p tagProduct) solve(c *ctmc.Chain) ([]float64, []prodState, error) {
	pi, err := c.SteadyState()
	if err != nil {
		return nil, nil, err
	}
	return pi, p.decode(c), nil
}

// queueLen reads node j's queue length from the decoded states.
func queueLen(states []prodState, j int) func(s int) float64 {
	return func(s int) float64 { return float64(states[s].nodes[j].q) }
}

// measures returns the two-node measures of a chain derived from this
// product at the stationary distribution pi.
func (p tagProduct) measures(c *ctmc.Chain, pi []float64) Measures {
	states := p.decode(c)
	out := Measures{States: c.NumStates()}
	out.L1 = c.Expectation(pi, queueLen(states, 0))
	out.L2 = c.Expectation(pi, queueLen(states, 1))
	out.X1 = c.ActionThroughput(pi, ActService1)
	out.X2 = c.ActionThroughput(pi, ActService2)
	out.LossArrival = c.ActionThroughput(pi, ActLossArrival)
	out.LossTransfer = c.ActionThroughput(pi, ActLossTransfer)
	out.TimeoutRate = c.ActionThroughput(pi, ActTimeout)
	out.Util1 = c.Probability(pi, func(s int) bool { return states[s].nodes[0].q > 0 })
	out.Util2 = c.Probability(pi, func(s int) bool { return states[s].nodes[1].q > 0 })
	out.finish()
	return out
}

// multiMeasures returns the per-node measures of a chain derived from
// this product.
func (p tagProduct) multiMeasures(c *ctmc.Chain) (MultiMeasures, error) {
	pi, states, err := p.solve(c)
	if err != nil {
		return MultiMeasures{}, err
	}
	out := MultiMeasures{States: c.NumStates(), L: make([]float64, len(p.nodes))}
	var acc numeric.Accumulator
	for j, spec := range p.nodes {
		out.L[j] = c.Expectation(pi, queueLen(states, j))
		acc.Add(out.L[j])
		out.Throughput += c.ActionThroughput(pi, spec.act.service)
	}
	out.LTotal = acc.Sum()
	out.Loss = c.ActionThroughput(pi, ActLossArrival) + c.ActionThroughput(pi, ActLossTransfer)
	if out.Throughput > 0 {
		out.W = out.LTotal / out.Throughput
	}
	return out, nil
}
