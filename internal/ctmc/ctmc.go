package ctmc

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pepatags/internal/linalg"
	"pepatags/internal/numeric"
)

// Transition is one labelled transition of the chain.
type Transition struct {
	From, To int
	Rate     float64
	Action   string
}

// Chain is an immutable labelled CTMC.
type Chain struct {
	labels      []string
	transitions []Transition
	gen         *linalg.CSR // cached generator
}

// NewChain builds a chain directly from a dense label slice (state i
// is labelled labels[i]) and a prebuilt transition list. Both slices
// are retained, not copied — this is the streaming-assembly
// counterpart to Builder for producers that number states themselves.
// Transitions are validated like Builder.Transition: positive finite
// rates, endpoints in range. Labels are assumed unique.
func NewChain(labels []string, transitions []Transition) *Chain {
	for _, t := range transitions {
		if t.Rate <= 0 || math.IsNaN(t.Rate) || math.IsInf(t.Rate, 0) {
			panic(fmt.Sprintf("ctmc: invalid rate %g for action %q", t.Rate, t.Action))
		}
		if t.From < 0 || t.From >= len(labels) || t.To < 0 || t.To >= len(labels) {
			panic(fmt.Sprintf("ctmc: transition (%d -> %d) out of range", t.From, t.To))
		}
	}
	return &Chain{labels: labels, transitions: transitions}
}

// Builder incrementally constructs a Chain.
type Builder struct {
	labels      []string
	index       map[string]int
	transitions []Transition
}

// NewBuilder returns an empty chain builder.
func NewBuilder() *Builder {
	return &Builder{index: make(map[string]int)}
}

// State interns the state with the given label and returns its index.
// Repeated calls with the same label return the same index.
func (b *Builder) State(label string) int {
	if i, ok := b.index[label]; ok {
		return i
	}
	i := len(b.labels)
	b.labels = append(b.labels, label)
	b.index[label] = i
	return i
}

// HasState reports whether the label has been interned.
func (b *Builder) HasState(label string) bool {
	_, ok := b.index[label]
	return ok
}

// NumStates returns the number of interned states so far.
func (b *Builder) NumStates() int { return len(b.labels) }

// Transition records a transition. Rates must be positive and the
// states must already be interned (indices in range). Self-loops are
// permitted at build time and dropped when the generator is formed
// (they do not affect a CTMC's stationary behaviour).
func (b *Builder) Transition(from, to int, rate float64, action string) {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("ctmc: invalid rate %g for action %q", rate, action))
	}
	if from < 0 || from >= len(b.labels) || to < 0 || to >= len(b.labels) {
		panic(fmt.Sprintf("ctmc: transition (%d -> %d) out of range", from, to))
	}
	b.transitions = append(b.transitions, Transition{From: from, To: to, Rate: rate, Action: action})
}

// Build finalises the chain.
func (b *Builder) Build() *Chain {
	labels := make([]string, len(b.labels))
	copy(labels, b.labels)
	trans := make([]Transition, len(b.transitions))
	copy(trans, b.transitions)
	return &Chain{labels: labels, transitions: trans}
}

// NumStates returns the number of states.
func (c *Chain) NumStates() int { return len(c.labels) }

// NumTransitions returns the number of recorded transitions (including
// self-loops).
func (c *Chain) NumTransitions() int { return len(c.transitions) }

// Label returns the label of state i.
func (c *Chain) Label(i int) string { return c.labels[i] }

// Transitions returns the transition list (shared slice; do not modify).
func (c *Chain) Transitions() []Transition { return c.transitions }

// Generator returns the (cached) generator matrix Q in CSR form, with
// self-loops removed and diagonals set to the negated row sums. It is
// assembled through the chain's GenPattern, the one generator assembly
// of the repository.
func (c *Chain) Generator() *linalg.CSR {
	if c.gen == nil {
		from, to := make([]int32, len(c.transitions)), make([]int32, len(c.transitions))
		for k, t := range c.transitions {
			from[k], to[k] = int32(t.From), int32(t.To)
		}
		NewGenPattern(len(c.labels), from, to).install(c)
	}
	return c.gen
}

// SteadyState solves pi Q = 0, sum(pi) = 1 with the automatic solver
// (linalg.SteadyState at default options).
func (c *Chain) SteadyState() ([]float64, error) {
	return linalg.SteadyState(c.Generator(), linalg.Options{})
}

// ActionThroughput returns the steady-state rate at which transitions
// labelled action occur: sum over transitions pi[from] * rate.
// Self-loop transitions count (a dropped job is a real event even
// though the state does not change).
func (c *Chain) ActionThroughput(pi []float64, action string) float64 {
	var acc numeric.Accumulator
	for _, t := range c.transitions {
		if t.Action == action {
			acc.Add(pi[t.From] * t.Rate)
		}
	}
	return acc.Sum()
}

// Actions returns the sorted set of action labels appearing in the
// chain.
func (c *Chain) Actions() []string {
	set := make(map[string]struct{})
	for _, t := range c.transitions {
		set[t.Action] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Expectation returns sum_i pi[i] * f(i), e.g. the mean queue length
// when f extracts the population of state i.
func (c *Chain) Expectation(pi []float64, f func(state int) float64) float64 {
	var acc numeric.Accumulator
	for i := range pi {
		if v := f(i); v != 0 { //vet:allow floatcmp: skip structural zeros of the reward function
			acc.Add(pi[i] * v)
		}
	}
	return acc.Sum()
}

// Probability returns the stationary probability of the predicate.
func (c *Chain) Probability(pi []float64, pred func(state int) bool) float64 {
	var acc numeric.Accumulator
	for i := range pi {
		if pred(i) {
			acc.Add(pi[i])
		}
	}
	return acc.Sum()
}

// CheckIrreducible verifies that every state is reachable from state 0
// and can reach state 0 (strong connectivity through state 0, which for
// our models implies irreducibility). It returns a descriptive error
// naming an offending state.
func (c *Chain) CheckIrreducible() error {
	n := c.NumStates()
	if n == 0 {
		return errors.New("ctmc: empty chain")
	}
	fwd := make([][]int, n)
	bwd := make([][]int, n)
	for _, t := range c.transitions {
		if t.From != t.To {
			fwd[t.From] = append(fwd[t.From], t.To)
			bwd[t.To] = append(bwd[t.To], t.From)
		}
	}
	reach := func(adj [][]int) []bool {
		seen := make([]bool, n)
		stack := []int{0}
		seen[0] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		return seen
	}
	f, bk := reach(fwd), reach(bwd)
	for i := 0; i < n; i++ {
		if !f[i] {
			return fmt.Errorf("ctmc: state %d (%s) unreachable from initial state", i, c.labels[i])
		}
		if !bk[i] {
			return fmt.Errorf("ctmc: state %d (%s) cannot return to initial state", i, c.labels[i])
		}
	}
	return nil
}
