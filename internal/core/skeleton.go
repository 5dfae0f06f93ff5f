package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"pepatags/internal/ctmc"
	"pepatags/internal/linalg"
)

// Model skeletons: the structure/rate split behind the sweep engine's
// content-addressed cache.
//
// For the built-in TAG models the reachable state space and the
// transition structure are a pure function of the model *shape* — the
// timer phase count, the queue capacities and (for H2 service) the
// degeneracy class of the branch probabilities. The numeric rates only
// scale edges. A Skeleton captures that shared structure once: state
// labels in derivation order plus symbolic transitions, each recording
// which rate slot and branch coefficient its numeric rate is the
// product of. Instantiate binds a concrete parameter point in
// O(transitions), producing a chain bit-identical to the one Build
// derives from scratch (Build itself routes through the skeleton, so
// the two cannot drift).

// RateSlot identifies which free rate parameter of a model shape a
// symbolic transition draws its rate from.
type RateSlot uint8

const (
	// SlotLambda is the arrival rate.
	SlotLambda RateSlot = iota
	// SlotMu is the exponential service rate (TAGExp).
	SlotMu
	// SlotT is the phase rate of the Erlang timeout clock.
	SlotT
	// SlotMu1 and SlotMu2 are the H2 branch service rates (TAGH2).
	SlotMu1
	SlotMu2
	// SlotNode2Mu and SlotNode2T are node 2's service and clock phase
	// rates when they differ from node 1's (TAGHetero).
	SlotNode2Mu
	SlotNode2T
	// SlotLambda2 is the phase-2 arrival rate of MMPP-2 arrivals (the
	// phase-1 rate is SlotLambda); SlotSwitch1 and SlotSwitch2 are the
	// phase flip rates 1 -> 2 and 2 -> 1.
	SlotLambda2
	SlotSwitch1
	SlotSwitch2
	// slotHalfLambda and slotHalfLambda2 are half the phase-1 and
	// phase-2 arrival rates: a shortest-queue tie sends an arrival to
	// either node at half rate. They are derived from Lambda and
	// Lambda2, not bound separately.
	slotHalfLambda
	slotHalfLambda2
	numSlots
)

// Coeff identifies the branch-probability factor multiplying the slot
// rate. CoeffOne leaves the slot rate untouched; the others are the H2
// branching probabilities at node-1 entry (alpha) and at the node-2
// repeat-service instant (alpha', the residual short-job probability).
type Coeff uint8

const (
	CoeffOne Coeff = iota
	CoeffAlpha
	CoeffOneMinusAlpha
	CoeffAlphaPrime
	CoeffOneMinusAlphaPrime
	numCoeffs
)

// RateValues binds numeric values to the rate slots and branch
// coefficients of a shape. Only the fields a model kind uses are
// meaningful (TAGExp reads Lambda/Mu/T; TAGH2 reads Lambda/T/Mu1/Mu2
// and the two branch probabilities; the other variants add node-2 and
// MMPP-2 rates).
type RateValues struct {
	Lambda float64
	Mu     float64
	T      float64
	Mu1    float64
	Mu2    float64

	Node2Mu, Node2T           float64
	Lambda2, Switch1, Switch2 float64

	Alpha      float64
	AlphaPrime float64
}

// slots returns the slot values indexed by RateSlot.
func (v RateValues) slots() [numSlots]float64 {
	return [numSlots]float64{v.Lambda, v.Mu, v.T, v.Mu1, v.Mu2, v.Node2Mu, v.Node2T, v.Lambda2, v.Switch1, v.Switch2,
		v.Lambda / 2, v.Lambda2 / 2}
}

// coeffs returns the branch coefficients indexed by Coeff.
func (v RateValues) coeffs() [numCoeffs]float64 {
	return [numCoeffs]float64{1, v.Alpha, 1 - v.Alpha, v.AlphaPrime, 1 - v.AlphaPrime}
}

// zeroMask returns the degeneracy class of the branch coefficients:
// bit i is set iff coefficient kind i evaluates to exactly zero, which
// removes its edges from the reachable structure.
func (v RateValues) zeroMask() uint8 {
	var m uint8
	for c, x := range v.coeffs() {
		if x == 0 { //vet:allow floatcmp: structural sparsity mask
			m |= 1 << c
		}
	}
	return m
}

// Shape is the canonical structure of a built-in TAG model: every
// parameter that determines the reachable state space and the symbolic
// transition structure, with the numeric rates abstracted away. Two
// models with equal shapes derive identical skeletons; two models with
// different shapes derive different state spaces (the skeleton property
// test asserts both directions), so Key is a sound content address for
// caching derived structure.
type Shape struct {
	// Kind names the model: "tagexp", "tagh2", "taghetero",
	// "tagexpmmpp", "tagh2mmpp" or "tagmultinode", or one of the
	// baselines "shortestqueue", "shortestqueuemmpp" and "roundrobin".
	Kind string
	// Phases is the number of exponential stages in the timeout clock
	// (N, or N+1 under TAGExp's LiteralFigure3 semantics).
	Phases int
	// K1 and K2 are the queue capacities.
	K1, K2 int
	// Literal marks TAGExp's printed-Figure-3 semantics, which also tick
	// the node-2 timer during residual service.
	Literal bool
	// ZeroCoeffs is the degeneracy mask of the branch coefficients
	// (tagh2 only): edges whose coefficient is exactly zero are absent
	// from the structure, so the mask is part of the shape.
	ZeroCoeffs uint8
}

// Canonical returns the canonical human-readable encoding of the
// shape, the pre-image of Key.
func (s Shape) Canonical() string {
	return fmt.Sprintf("pepatags/shape/v1:%s/phases=%d/k1=%d/k2=%d/literal=%t/zero=%02x",
		s.Kind, s.Phases, s.K1, s.K2, s.Literal, s.ZeroCoeffs)
}

// Key returns the content address of the shape: the SHA-256 of the
// canonical encoding, in hex.
func (s Shape) Key() string {
	h := sha256.Sum256([]byte(s.Canonical()))
	return hex.EncodeToString(h[:])
}

// SymEdge is one symbolic transition of a skeleton: its numeric rate at
// a parameter point is slot(v) * coeff(v).
type SymEdge struct {
	From, To int32
	Slot     RateSlot
	Coeff    Coeff
	Action   string
}

// Skeleton is the derived structure shared by every instance of one
// Shape: state labels in derivation (BFS) order, symbolic transitions
// in emission order, and what the measures read of them (each state's
// per-node queue lengths and each action's transitions), recorded
// while the derivation ran. A Skeleton is immutable after construction
// and safe for concurrent use.
//
// A solve of a cached shape needs no chain: Rates fills the
// per-transition rates of a parameter point into a reused buffer,
// GenPattern's Fill turns them into generator values in O(nnz), and
// Measures reads the paper's measures straight from the rates and the
// stationary distribution.
type Skeleton struct {
	Shape  Shape
	Edges  []SymEdge
	labels []string
	vec    stateVectors
}

// NumStates returns the size of the shared state space.
func (sk *Skeleton) NumStates() int { return len(sk.labels) }

// Label returns the label of state i. No program path calls it: the
// skeleton tests fingerprint derivations by it.
func (sk *Skeleton) Label(i int) string { return sk.labels[i] }

// Rates writes the rate of each transition at the parameter point v
// into dst, which has one entry per edge. It fails if the point's
// branch-coefficient degeneracy does not match the shape (an alpha of
// exactly 0 or 1 changes the reachable structure), if any rate is not
// positive and finite, or if an edge leaves the state space.
func (sk *Skeleton) Rates(v RateValues, dst []float64) error {
	if len(dst) != len(sk.Edges) {
		return fmt.Errorf("core: %d rates for a skeleton of %d transitions", len(dst), len(sk.Edges))
	}
	if sk.Shape.Kind == "tagh2" {
		if m := v.zeroMask(); m != sk.Shape.ZeroCoeffs {
			return fmt.Errorf("core: rate values have coefficient degeneracy %02x, skeleton was derived for %02x", m, sk.Shape.ZeroCoeffs)
		}
	}
	n := int32(sk.NumStates())
	slots, coeffs := v.slots(), v.coeffs()
	for i, e := range sk.Edges {
		r := slots[e.Slot]
		if e.Coeff != CoeffOne {
			r = r * coeffs[e.Coeff]
		}
		if !(r > 0) || math.IsInf(r, 1) {
			return fmt.Errorf("core: non-positive or infinite rate %g for action %q (slot %d, coeff %d)", r, e.Action, e.Slot, e.Coeff)
		}
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("core: transition (%d -> %d) out of range", e.From, e.To)
		}
		dst[i] = r
	}
	return nil
}

// Instantiate binds a parameter point to the skeleton, producing a
// chain bit-identical to the one the model's Build would derive from
// scratch. Sibling chains share the skeleton's label slice. It fails
// where Rates does.
func (sk *Skeleton) Instantiate(v RateValues) (*ctmc.Chain, error) {
	rate := make([]float64, len(sk.Edges))
	if err := sk.Rates(v, rate); err != nil {
		return nil, err
	}
	trs := make([]ctmc.Transition, len(sk.Edges))
	for i, e := range sk.Edges {
		trs[i] = ctmc.Transition{From: int(e.From), To: int(e.To), Rate: rate[i], Action: e.Action}
	}
	return ctmc.NewChain(sk.labels, trs), nil
}

// solve solves the skeleton at v from a cold start, returning the
// stationary distribution and the per-transition rates. It assembles
// the generator as the sweep cache does, over GenPattern, and builds
// no chain; the bits are those of the instantiated chain's
// SteadyState.
func (sk *Skeleton) solve(v RateValues) (pi, rate []float64, err error) {
	rate = make([]float64, len(sk.Edges))
	if err := sk.Rates(v, rate); err != nil {
		return nil, nil, err
	}
	pat := sk.GenPattern()
	vals := make([]float64, pat.NNZ())
	pat.Fill(rate, make([]float64, sk.NumStates()), vals)
	if pi, err = linalg.SteadyState(pat.CSR(vals), linalg.Options{}); err != nil {
		return nil, nil, err
	}
	return pi, rate, nil
}

// analyze solves the two-node skeleton at v from a cold start and
// reads its measures.
func (sk *Skeleton) analyze(v RateValues) (Measures, error) {
	pi, rate, err := sk.solve(v)
	if err != nil {
		return Measures{}, err
	}
	return sk.Measures(pi, rate), nil
}

// GenPattern returns the assembly pattern of the generators of the
// skeleton's chains, whose transitions are its edges in order.
func (sk *Skeleton) GenPattern() *ctmc.GenPattern {
	from := make([]int32, len(sk.Edges))
	to := make([]int32, len(sk.Edges))
	for i, e := range sk.Edges {
		from[i], to[i] = e.From, e.To
	}
	return ctmc.NewGenPattern(sk.NumStates(), from, to)
}

// Measures reads the two-node measures of a TAGExp or TAGH2 skeleton
// at the stationary distribution pi, where rate holds the
// per-transition rates Rates filled for the point pi was solved at.
// They are bit-identical to the model's MeasuresFrom on the
// instantiated chain.
func (sk *Skeleton) Measures(pi, rate []float64) Measures { return sk.vec.twoNode(pi, rate) }

// emitFunc receives one symbolic transition out of a state: its target,
// rate slot, branch coefficient and action.
type emitFunc[S any] func(to S, slot RateSlot, coeff Coeff, action string)

// derive explores the states reachable from init breadth-first. step
// emits every transition out of a state, in a fixed order; states with
// one label are one state, numbered in the order they are first
// reached, and queues gives the per-node queue lengths of the states
// (queue[j][i] jobs at node j in state i). It returns the skeleton of
// the shape and the states it found, state i at index i.
func derive[S any](shape Shape, init S, label func(S) string, step func(S, emitFunc[S]), queues func([]S) [][]int32) (*Skeleton, []S) {
	states, labels := []S{init}, []string{label(init)}
	index := map[string]int32{labels[0]: 0}
	var edges []SymEdge
	var from int32
	emit := func(to S, slot RateSlot, coeff Coeff, action string) {
		l := label(to)
		i, ok := index[l]
		if !ok {
			i = int32(len(states))
			index[l] = i
			states, labels = append(states, to), append(labels, l)
		}
		edges = append(edges, SymEdge{From: from, To: i, Slot: slot, Coeff: coeff, Action: action})
	}
	for ; int(from) < len(states); from++ {
		step(states[from], emit)
	}
	sk := &Skeleton{Shape: shape, Edges: edges, labels: labels, vec: stateVectors{queue: queues(states)}}
	sk.vec.indexEdges(len(edges), func(k int) (int32, string) { return edges[k].From, edges[k].Action })
	return sk, states
}

// replay recovers the states of c, a chain derived by step from init,
// by running the derivation again against the chain's transitions,
// which a skeleton keeps in emission order: state i's emitted
// transitions are the chain's next ones, in order, and a state first
// reached is the next one numbered. No label is read. It panics unless
// every transition matches the emitted action and is consumed, so a
// chain of another shape does not replay.
func replay[S any](c *ctmc.Chain, init S, step func(S, emitFunc[S])) []S {
	states := make([]S, c.NumStates())
	trs := c.Transitions()
	states[0] = init
	i, k, found := 0, 0, 1
	emit := func(to S, _ RateSlot, _ Coeff, action string) {
		if k >= len(trs) || trs[k].From != i || trs[k].Action != action || trs[k].To > found {
			panic(fmt.Sprintf("core: chain transition %d does not match the model's derivation", k))
		}
		if trs[k].To == found {
			states[found] = to
			found++
		}
		k++
	}
	for ; i < found; i++ {
		step(states[i], emit)
	}
	if found != len(states) || k != len(trs) {
		panic(fmt.Sprintf("core: chain of %d states and %d transitions replays to %d and %d", len(states), len(trs), found, k))
	}
	return states
}

// SkeletonModel is a model whose CTMC can be derived once per shape and
// re-instantiated at many parameter points. TAGExp and TAGH2 implement
// it; the sweep engine's cache is keyed on Shape().Key().
type SkeletonModel interface {
	// Shape returns the canonical structure of the model.
	Shape() Shape
	// Skeleton derives the shared structure (the expensive step).
	Skeleton() *Skeleton
	// RateValues returns this instance's binding for the shape's rate
	// slots and coefficients.
	RateValues() RateValues
}
