package core

import (
	"strconv"

	"pepatags/internal/ctmc"
	"pepatags/internal/numeric"
)

// The TAG product derivation. Every TAG variant except the TAGExp
// oracle — H2 demand, heterogeneous nodes, serve-alone-to-completion,
// MMPP-2 arrivals and more than two nodes — is one product of an
// arrival process (Poisson or MMPP-2), per-node phase-type service and
// an Erlang timeout. So are the baselines, whose nodes serve to
// completion: a routing policy sends each arrival to node 1 (TAG), to
// the shorter queue (JSQ) or to the nodes in turn (round robin). A
// model is a tagProduct parameterisation; this file derives its
// skeleton and reads its measures.
//
// A product state is the arrival phase and the round-robin pointer
// times, per node, the queue length and the head-of-line job's H2
// branch, stage and phase. A job
// reaching node j's server first repeats the work it received upstream
// (an Erlang of repeat phases at the node's clock rate; none at node
// 1), then samples its H2 branch and races its service against an
// N-phase timeout at the same clock rate. A timeout kills the job and
// passes it to node j+1, or loses it when that queue is full; the last
// node (every node of a baseline) serves to completion. Clocks freeze outside their stage (the
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

// prodState is one product state: the arrival phase (0 or 1), the
// round-robin pointer (the node the next arrival is sent to; always 0
// under other routing) and the nodes in routing order.
type prodState struct {
	arrival, rr int
	nodes       []prodNode
}

func (s prodState) clone() prodState {
	s.nodes = append([]prodNode(nil), s.nodes...)
	return s
}

// label encodes the state as "P<arrival>[R<rr>]" and one
// "|<q>.<branch>.<stage>.<phase>" per node.
func (s prodState) label() string {
	var buf [64]byte
	b := strconv.AppendInt(append(buf[:0], 'P'), int64(s.arrival), 10)
	if s.rr != 0 {
		b = strconv.AppendInt(append(b, 'R'), int64(s.rr), 10)
	}
	for _, n := range s.nodes {
		b = strconv.AppendInt(append(b, '|'), int64(n.q), 10)
		b = strconv.AppendInt(append(b, '.'), int64(n.branch), 10)
		b = strconv.AppendInt(append(b, '.'), int64(n.stage), 10)
		b = strconv.AppendInt(append(b, '.'), int64(n.phase), 10)
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

// route is a product's dispatch policy: the node an arrival joins.
type route uint8

const (
	routeFirst     route = iota // node 1, as TAG does
	routeShortest               // the shorter of two queues; a tie splits evenly
	routeAlternate              // the nodes in turn; a loss still advances the pointer
)

// tagProduct is a model as a product parameterisation. The rates only
// decide which edges exist (a zero slot or coefficient removes its
// edges); the structure is otherwise rate-free.
type tagProduct struct {
	shape  Shape
	phases int  // N, the timeout's Erlang phases
	mmpp   bool // MMPP-2 arrivals (phase slots Lambda/Lambda2, switches Switch1/Switch2)
	route  route
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

// race starts node j's head on its race stage, one edge per H2 branch.
func (p tagProduct) race(to prodState, j int, slot RateSlot, action string, emit emitFunc[prodState]) {
	for b, c := range p.nodes[j].branch {
		next := to.clone()
		next.nodes[j].branch, next.nodes[j].stage, next.nodes[j].phase = b+1, stageRace, p.phases-1
		emit(next, slot, c, action)
	}
}

// depart removes node j's head; the next job (if any) reaches the
// server.
func (p tagProduct) depart(to prodState, j int, slot RateSlot, action string, emit emitFunc[prodState]) {
	q := to.nodes[j].q - 1
	to.nodes[j] = p.idle(j)
	to.nodes[j].q = q
	if q > 0 && p.nodes[j].repeat == 0 {
		p.race(to, j, slot, action, emit)
		return
	}
	emit(to, slot, CoeffOne, action)
}

// dispatch calls join for each node an arrival in state s joins, with
// half set when the node takes half the arrival rate (a shortest-queue
// tie). It calls nothing when the arrival is lost.
func (p tagProduct) dispatch(s prodState, join func(j int, half bool)) {
	room := func(j int) bool { return s.nodes[j].q < p.nodes[j].k }
	switch p.route {
	case routeFirst:
		if room(0) {
			join(0, false)
		}
	case routeAlternate:
		if room(s.rr) {
			join(s.rr, false)
		}
	case routeShortest:
		q1, q2 := s.nodes[0].q, s.nodes[1].q
		switch {
		case !room(0) && !room(1):
		case q1 < q2 || !room(1):
			join(0, false)
		case q2 < q1 || !room(0):
			join(1, false)
		default:
			join(0, true)
			join(1, true)
		}
	}
}

// step emits every transition out of s, in derivation order. An edge
// whose slot or coefficient is zero at the product's rates is absent.
func (p tagProduct) step(s prodState, emit emitFunc[prodState]) {
	slots, coeffs := p.rates.slots(), p.rates.coeffs()
	p.edges(s, func(to prodState, slot RateSlot, coeff Coeff, action string) {
		if slots[slot] != 0 && coeffs[coeff] != 0 { //vet:allow floatcmp: structural sparsity
			emit(to, slot, coeff, action)
		}
	})
}

// edges emits the transitions out of s whatever the rates, in
// derivation order: arrival phase switch, arrival, then each node's
// head.
func (p tagProduct) edges(s prodState, emit emitFunc[prodState]) {
	arrive, half := SlotLambda, slotHalfLambda
	if p.mmpp {
		flip, sw := s.clone(), SlotSwitch1
		flip.arrival = 1 - s.arrival
		if s.arrival == 1 {
			arrive, half, sw = SlotLambda2, slotHalfLambda2, SlotSwitch2
		}
		emit(flip, sw, CoeffOne, actSwitch)
	}
	next := s
	if p.route == routeAlternate {
		next = s.clone()
		next.rr = (s.rr + 1) % len(p.nodes)
	}
	lost := true
	p.dispatch(s, func(j int, tie bool) {
		lost = false
		slot := arrive
		if tie {
			slot = half
		}
		to := next.clone()
		to.nodes[j].q++
		if to.nodes[j].q == 1 && p.nodes[j].repeat == 0 {
			p.race(to, j, slot, ActArrival, emit)
		} else {
			emit(to, slot, CoeffOne, ActArrival)
		}
	})
	if lost {
		emit(next, arrive, CoeffOne, ActLossArrival)
	}
	for j, spec := range p.nodes {
		n := s.nodes[j]
		switch {
		case n.q == 0:
		case n.stage == stageRepeat && n.phase > 0:
			to := s.clone()
			to.nodes[j].phase--
			emit(to, spec.clock, CoeffOne, spec.act.repeat)
		case n.stage == stageRepeat:
			p.race(s, j, spec.clock, spec.act.begin, emit)
		default:
			p.depart(s.clone(), j, spec.mu[n.branch-1], spec.act.service, emit)
			if !spec.timeout {
				break
			}
			if n.phase > 0 {
				to := s.clone()
				to.nodes[j].phase--
				emit(to, spec.clock, CoeffOne, spec.act.tick)
			} else if !(spec.alone && n.q == 1) {
				// Timeout: the head restarts at node j+1, which (having a
				// repeat period) keeps its idle head configuration.
				to, action := s.clone(), ActLossTransfer
				if to.nodes[j+1].q < p.nodes[j+1].k {
					to.nodes[j+1].q++
					action = spec.act.timeout
				}
				p.depart(to, j, spec.clock, action, emit)
			}
		}
	}
}

// skeleton derives the reachable state space breadth-first.
func (p tagProduct) skeleton() *Skeleton {
	sk, _ := p.derive()
	return sk
}

// derive derives the skeleton and returns it with the states it found.
func (p tagProduct) derive() (*Skeleton, []prodState) {
	queues := func(states []prodState) [][]int32 { return productQueues(states, len(p.nodes)) }
	return derive(p.shape, p.initial(), prodState.label, p.step, queues)
}

// productQueues returns the per-node queue lengths of the states.
func productQueues(states []prodState, nodes int) [][]int32 {
	queue := make([][]int32, nodes)
	for j := range queue {
		queue[j] = make([]int32, len(states))
		for i, s := range states {
			queue[j][i] = int32(s.nodes[j].q)
		}
	}
	return queue
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
func (p tagProduct) analyze() (Measures, error) { return p.skeleton().analyze(p.rates) }

// analyzeChain solves a chain derived from this product from a cold
// start and reads the two-node measures off the result.
func (p tagProduct) analyzeChain(c *ctmc.Chain) (Measures, error) {
	pi, err := c.SteadyState()
	if err != nil {
		return Measures{}, err
	}
	return p.measures(c, pi), nil
}

// decode recovers the states of a chain derived from this product by
// replaying the derivation against it.
func (p tagProduct) decode(c *ctmc.Chain) []prodState { return replay(c, p.initial(), p.step) }

// solved derives the product and solves it at its own rates from a
// cold start, returning the stationary distribution and the states.
func (p tagProduct) solved() ([]float64, []prodState, error) {
	sk, states := p.derive()
	pi, _, err := sk.solve(p.rates)
	return pi, states, err
}

// measures returns the two-node measures of a chain derived from this
// product at the stationary distribution pi.
func (p tagProduct) measures(c *ctmc.Chain, pi []float64) Measures {
	v, rate := chainVectors(c, productQueues(p.decode(c), len(p.nodes)))
	return v.twoNode(pi, rate)
}

// multiMeasures solves the product and returns its per-node measures.
func (p tagProduct) multiMeasures() (MultiMeasures, error) {
	sk := p.skeleton()
	pi, rate, err := sk.solve(p.rates)
	if err != nil {
		return MultiMeasures{}, err
	}
	v := &sk.vec
	out := MultiMeasures{States: len(pi), L: make([]float64, len(p.nodes))}
	var acc numeric.Accumulator
	for j, spec := range p.nodes {
		out.L[j] = v.meanQueue(pi, j)
		acc.Add(out.L[j])
		out.Throughput += v.throughput(pi, rate, spec.act.service)
	}
	out.LTotal = acc.Sum()
	out.Loss = v.throughput(pi, rate, ActLossArrival) + v.throughput(pi, rate, ActLossTransfer)
	if out.Throughput > 0 {
		out.W = out.LTotal / out.Throughput
	}
	return out, nil
}
