package core

import (
	"fmt"

	"pepatags/internal/ctmc"
)

// TAGExp is the two-node TAG system of the paper's Figure 3:
// exponential service at rate Mu on both nodes, Poisson arrivals at
// rate Lambda into node 1, an Erlang timeout clock with N exponential
// phases at rate T (mean total timeout duration N/T, the paper's
// "n/t") racing the service at node 1, and a repeat-service period of
// the same Erlang duration at node 2 followed by the (memoryless)
// residual service.
//
// Queues are bounded: arrivals finding node 1 full are lost
// (loss_arrival) and timed-out jobs finding node 2 full are lost after
// having consumed node-1 capacity (loss_transfer) — the paper's "work
// lost" effect.
//
// Phase conventions. The printed Figure 3 timer has derivatives
// Timer_0..Timer_n (n ticks plus the timeout firing, n+1 phases) and a
// tick2 self-loop that lets the node-2 timer run during the residual
// service. The paper's prose ("the average total timeout duration is
// simply n/t") and its reported state count (4331 for n=6,
// K1=K2=10) both correspond instead to an n-phase timer with the
// node-2 timer frozen during residual service; that calibrated
// convention is the default here and reproduces the 4331 states
// exactly. Set LiteralFigure3 for the printed variant ((n+1)-phase
// timers, ticking during service).
type TAGExp struct {
	Lambda float64 // arrival rate
	Mu     float64 // service rate (both nodes)
	T      float64 // phase rate of the Erlang timeout clock
	N      int     // number of Erlang phases in the timeout
	K1, K2 int     // queue capacities

	LiteralFigure3 bool // printed Figure 3 semantics instead of the calibrated ones
}

// NewTAGExp returns a TAGExp with the calibrated (paper-matching)
// semantics.
func NewTAGExp(lambda, mu, t float64, n, k1, k2 int) TAGExp {
	m := TAGExp{Lambda: lambda, Mu: mu, T: t, N: n, K1: k1, K2: k2}
	m.validate()
	return m
}

func (m TAGExp) validate() {
	if m.Lambda <= 0 || m.Mu <= 0 || m.T <= 0 || m.N < 1 || m.K1 < 1 || m.K2 < 1 {
		panic(fmt.Sprintf("core: invalid TAGExp parameters %+v", m))
	}
}

// phases returns the number of exponential stages in the timeout.
func (m TAGExp) phases() int {
	if m.LiteralFigure3 {
		return m.N + 1
	}
	return m.N
}

// tick2DuringService reports whether the node-2 timer advances while
// the residual service runs.
func (m TAGExp) tick2DuringService() bool { return m.LiteralFigure3 }

// MeanTimeoutDuration is the mean of the Erlang timeout.
func (m TAGExp) MeanTimeoutDuration() float64 { return float64(m.phases()) / m.T }

// EffectiveTimeoutRate is the reciprocal of the mean total timeout
// duration, the quantity on the paper's x-axes (t/n).
func (m TAGExp) EffectiveTimeoutRate() float64 { return 1 / m.MeanTimeoutDuration() }

// tagExpState is the joint state of the CTMC.
type tagExpState struct {
	q1  int  // jobs at node 1 (0..K1)
	tm1 int  // node-1 timer phase: phases-1..0, reset on service/timeout
	q2  int  // jobs at node 2 (0..K2)
	sv2 bool // node-2 head job in residual service (Q2' derivative)
	tm2 int  // node-2 timer phase
}

func (s tagExpState) label() string {
	sv := "w"
	if s.sv2 {
		sv = "s"
	}
	return fmt.Sprintf("Q1_%d.T1_%d|Q2_%d%s.T2_%d", s.q1, s.tm1, s.q2, sv, s.tm2)
}

// Shape returns the canonical model structure: everything that
// determines the reachable state space, with the rates abstracted away.
func (m TAGExp) Shape() Shape {
	m.validate()
	return Shape{Kind: "tagexp", Phases: m.phases(), K1: m.K1, K2: m.K2, Literal: m.LiteralFigure3}
}

// RateValues returns this instance's binding for the shape's rate
// slots: arrivals, service and the timer phase rate.
func (m TAGExp) RateValues() RateValues {
	return RateValues{Lambda: m.Lambda, Mu: m.Mu, T: m.T}
}

// Skeleton derives the state space and symbolic transition structure by
// breadth-first exploration of the transition rules. Every model with
// the same Shape yields the same skeleton; Build instantiates it with
// this instance's rates, so the derivation cost can be paid once per
// shape and shared across parameter points.
func (m TAGExp) Skeleton() *Skeleton {
	m.validate()
	top := m.phases() - 1 // timer reset value
	b := newSkeletonBuilder()
	init := tagExpState{q1: 0, tm1: top, q2: 0, sv2: false, tm2: top}
	frontier := []tagExpState{init}
	b.state(init.label())
	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		from, _ := b.state(s.label())
		emit := func(to tagExpState, slot RateSlot, action string) {
			i, fresh := b.state(to.label())
			if fresh {
				frontier = append(frontier, to)
			}
			b.edge(from, i, slot, CoeffOne, action)
		}

		// --- Node 1 ---
		if s.q1 < m.K1 {
			to := s
			to.q1++
			emit(to, SlotLambda, ActArrival)
		} else {
			emit(s, SlotLambda, ActLossArrival)
		}
		if s.q1 > 0 {
			// service1 wins the race: depart, reset the timer.
			to := s
			to.q1--
			to.tm1 = top
			emit(to, SlotMu, ActService1)
			if s.tm1 > 0 {
				// tick1
				to := s
				to.tm1--
				emit(to, SlotT, ActTick1)
			} else {
				// timeout fires: job killed at node 1, restarted at node 2.
				to := s
				to.q1--
				to.tm1 = top
				if s.q2 < m.K2 {
					to.q2++
					emit(to, SlotT, ActTimeout)
				} else {
					emit(to, SlotT, ActLossTransfer)
				}
			}
		}

		// --- Node 2 ---
		if s.q2 > 0 {
			if !s.sv2 {
				// Head job in its repeat period (Q2 derivative).
				if s.tm2 > 0 {
					to := s
					to.tm2--
					emit(to, SlotT, ActTick2)
				} else {
					// repeatservice fires: residual service begins,
					// timer returns to the top.
					to := s
					to.sv2 = true
					to.tm2 = top
					emit(to, SlotT, ActRepeatService)
				}
			} else {
				// Residual service (Q2' derivative).
				if m.tick2DuringService() && s.tm2 > 0 {
					to := s
					to.tm2--
					emit(to, SlotT, ActTick2)
				}
				to := s
				to.q2--
				to.sv2 = false
				emit(to, SlotMu, ActService2)
			}
		}
	}
	return b.finish(m.Shape())
}

// Build derives the reachable CTMC: the skeleton instantiated with this
// instance's rates.
func (m TAGExp) Build() *ctmc.Chain {
	c, err := m.Skeleton().Instantiate(m.RateValues())
	if err != nil {
		panic("core: " + err.Error()) // unreachable: validate vetted the rates
	}
	return c
}

// stateInfo decodes the state structure from the chain labels for
// measure extraction.
func (m TAGExp) stateInfo(c *ctmc.Chain) []tagExpState {
	states := make([]tagExpState, c.NumStates())
	for i := range states {
		states[i] = parseTagExpLabel(c.Label(i))
	}
	return states
}

// parseTagExpLabel is the strict inverse of tagExpState.label: it
// accepts exactly the strings label produces — unsigned decimals
// without leading zeros, "w" or "s" for the node-2 derivative, nothing
// after the last field — and panics on anything else. It does not
// allocate.
func parseTagExpLabel(lbl string) tagExpState {
	p := labelScanner{s: lbl}
	var s tagExpState
	p.literal("Q1_")
	s.q1 = p.number()
	p.literal(".T1_")
	s.tm1 = p.number()
	p.literal("|Q2_")
	s.q2 = p.number()
	switch p.next() {
	case 'w':
	case 's':
		s.sv2 = true
	default:
		p.fail()
	}
	p.literal(".T2_")
	s.tm2 = p.number()
	if p.i != len(lbl) {
		p.fail()
	}
	return s
}

// labelScanner walks a state label left to right for parseTagExpLabel.
type labelScanner struct {
	s string
	i int
}

func (p *labelScanner) fail() {
	panic(fmt.Sprintf("core: cannot decode state label %q at byte %d", p.s, p.i))
}

// next consumes one byte or fails at the end of the label.
func (p *labelScanner) next() byte {
	if p.i == len(p.s) {
		p.fail()
	}
	p.i++
	return p.s[p.i-1]
}

// literal consumes lit or fails.
func (p *labelScanner) literal(lit string) {
	if len(p.s)-p.i < len(lit) || p.s[p.i:p.i+len(lit)] != lit {
		p.fail()
	}
	p.i += len(lit)
}

// number consumes an unsigned decimal as %d prints it or fails.
func (p *labelScanner) number() int {
	const limit = 1 << 30 // far beyond any reachable queue length or phase
	j := p.i
	v := 0
	for j < len(p.s) && p.s[j] >= '0' && p.s[j] <= '9' {
		v = v*10 + int(p.s[j]-'0')
		if v >= limit {
			p.fail()
		}
		j++
	}
	if j == p.i || (p.s[p.i] == '0' && j-p.i > 1) {
		p.fail()
	}
	p.i = j
	return v
}

// Analyze solves the model and returns the paper's measures.
func (m TAGExp) Analyze() (Measures, error) {
	return m.AnalyzeChain(m.Build())
}

// AnalyzeChain solves a chain built for exactly this model instance —
// by Build, or by a cached skeleton instantiated at this instance's
// rates — from a cold start and extracts the paper's measures from it.
func (m TAGExp) AnalyzeChain(c *ctmc.Chain) (Measures, error) {
	pi, err := c.SteadyState()
	if err != nil {
		return Measures{}, err
	}
	return m.MeasuresFrom(c, pi), nil
}

// MeasuresFrom extracts the paper's measures from a chain built for
// exactly this model instance at its stationary distribution pi,
// however pi was obtained.
func (m TAGExp) MeasuresFrom(c *ctmc.Chain, pi []float64) Measures {
	states := m.stateInfo(c)
	out := Measures{States: c.NumStates()}
	out.L1 = c.Expectation(pi, func(s int) float64 { return float64(states[s].q1) })
	out.L2 = c.Expectation(pi, func(s int) float64 { return float64(states[s].q2) })
	out.X1 = c.ActionThroughput(pi, ActService1)
	out.X2 = c.ActionThroughput(pi, ActService2)
	out.LossArrival = c.ActionThroughput(pi, ActLossArrival)
	out.LossTransfer = c.ActionThroughput(pi, ActLossTransfer)
	out.TimeoutRate = c.ActionThroughput(pi, ActTimeout)
	out.Util1 = c.Probability(pi, func(s int) bool { return states[s].q1 > 0 })
	out.Util2 = c.Probability(pi, func(s int) bool { return states[s].q2 > 0 })
	out.finish()
	return out
}
