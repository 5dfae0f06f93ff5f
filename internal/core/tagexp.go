package core

import (
	"fmt"
	"strconv"

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

// tagExpState is the joint state of the CTMC.
type tagExpState struct {
	q1  int  // jobs at node 1 (0..K1)
	tm1 int  // node-1 timer phase: phases-1..0, reset on service/timeout
	q2  int  // jobs at node 2 (0..K2)
	sv2 bool // node-2 head job in residual service (Q2' derivative)
	tm2 int  // node-2 timer phase
}

// label encodes the state as "Q1_<q1>.T1_<tm1>|Q2_<q2><w|s>.T2_<tm2>",
// w while the node-2 head repeats and s in its residual service.
func (s tagExpState) label() string {
	var buf [48]byte
	b := strconv.AppendInt(append(buf[:0], "Q1_"...), int64(s.q1), 10)
	b = strconv.AppendInt(append(b, ".T1_"...), int64(s.tm1), 10)
	b = strconv.AppendInt(append(b, "|Q2_"...), int64(s.q2), 10)
	if s.sv2 {
		b = append(b, 's')
	} else {
		b = append(b, 'w')
	}
	b = strconv.AppendInt(append(b, ".T2_"...), int64(s.tm2), 10)
	return string(b)
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
	sk, _ := m.derive()
	return sk
}

// derive derives the skeleton and returns it with the states it found.
func (m TAGExp) derive() (*Skeleton, []tagExpState) {
	m.validate()
	return derive(m.Shape(), m.initial(), tagExpState.label, m.step, tagExpQueues)
}

// initial is the empty system, both timers at the top.
func (m TAGExp) initial() tagExpState {
	top := m.phases() - 1
	return tagExpState{tm1: top, tm2: top}
}

// step emits every transition out of s, in derivation order: the
// rules of the paper's Figure 3, node 1 then node 2.
func (m TAGExp) step(s tagExpState, edge emitFunc[tagExpState]) {
	top := m.phases() - 1 // timer reset value
	emit := func(to tagExpState, slot RateSlot, action string) { edge(to, slot, CoeffOne, action) }

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

// tagExpQueues returns the per-node queue lengths of the states.
func tagExpQueues(states []tagExpState) [][]int32 {
	q1, q2 := make([]int32, len(states)), make([]int32, len(states))
	for i, s := range states {
		q1[i], q2[i] = int32(s.q1), int32(s.q2)
	}
	return [][]int32{q1, q2}
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

// stateInfo recovers the states of a chain built for this model's
// shape by replaying the derivation against it.
func (m TAGExp) stateInfo(c *ctmc.Chain) []tagExpState { return replay(c, m.initial(), m.step) }

// Analyze solves the model and returns the paper's measures.
func (m TAGExp) Analyze() (Measures, error) {
	return m.Skeleton().analyze(m.RateValues())
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
// however pi was obtained. The queue lengths come from replaying the
// derivation against the chain; the sums are the ones Skeleton.Measures runs.
func (m TAGExp) MeasuresFrom(c *ctmc.Chain, pi []float64) Measures {
	v, rate := chainVectors(c, tagExpQueues(m.stateInfo(c)))
	return v.twoNode(pi, rate)
}
