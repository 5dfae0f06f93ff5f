package ctmc

import (
	"errors"
	"fmt"

	"pepatags/internal/linalg"
)

// First-passage analysis: expected time to hit a target set from each
// state, and the hitting probability before an avoid set. These back
// the paper's informal claim that "for all but the largest jobs the
// delay is bounded" — e.g. the expected time for the node-1 queue to
// fill from empty under each policy.

// freeStates numbers the states off the boundary in increasing order:
// idx[i] is state i's unknown in a first-passage system, or -1 for a
// boundary state, and free[r] is the state of unknown r.
func freeStates(n int, boundary func(state int) bool) (idx, free []int) {
	idx = make([]int, n)
	for i := range idx {
		if boundary(i) {
			idx[i] = -1
		} else {
			idx[i] = len(free)
			free = append(free, i)
		}
	}
	return idx, free
}

// solveHitting solves the first-passage system A x = b, A the
// generator q restricted to the free states of idx (see freeStates).
// A is sliced from q's rows: the free states are numbered in
// increasing order, so each row's columns stay sorted. −A is a
// nonsingular M-matrix once checkReachable has passed. Systems of up
// to linalg.DenseCutoff unknowns go to dense LU, larger ones to the
// ILU(0)-preconditioned BiCGSTAB kernel.
func solveHitting(q *linalg.CSR, idx []int, b []float64) ([]float64, error) {
	a := &linalg.CSR{Rows: len(b), Cols: len(b), RowPtr: make([]int, 1, len(b)+1)}
	for i, r := range idx {
		if r < 0 {
			continue
		}
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			if j := idx[q.ColIdx[k]]; j >= 0 {
				a.ColIdx = append(a.ColIdx, j)
				a.Val = append(a.Val, q.Val[k])
			}
		}
		a.RowPtr = append(a.RowPtr, len(a.ColIdx))
	}
	if a.Rows <= linalg.DenseCutoff {
		return linalg.LUSolve(a.ToDense(), b)
	}
	return linalg.SolveBiCGSTAB(a, b)
}

// checkReachable returns an error naming a free state (idx >= 0) from
// which no path of q leads to a boundary state (idx < 0). Such a state
// makes the first-passage system singular, and round-off can hide that
// from the solver: LU then returns huge values instead of failing.
func checkReachable(q *linalg.CSR, idx []int) error {
	qt := q.Transpose() // row j lists the states with a transition into j
	out := make([]bool, len(idx))
	var stack []int
	for j, r := range idx {
		if r < 0 {
			out[j] = true
			stack = append(stack, j)
		}
	}
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for k := qt.RowPtr[j]; k < qt.RowPtr[j+1]; k++ {
			if i := qt.ColIdx[k]; !out[i] {
				out[i] = true
				stack = append(stack, i)
			}
		}
	}
	for i, ok := range out {
		if !ok {
			return fmt.Errorf("ctmc: no path from state %d to a boundary state", i)
		}
	}
	return nil
}

// ExpectedHittingTimes returns, for every state i, the expected time
// to first reach any state in target. Target states get 0. The system
// solved is the standard one: for i not in target,
//
//	sum_j Q[i][j] h[j] = -1.
//
// A state that cannot reach the target makes the system singular and
// is an error.
func (c *Chain) ExpectedHittingTimes(target func(state int) bool) ([]float64, error) {
	n := c.NumStates()
	if n == 0 {
		return nil, errors.New("ctmc: empty chain")
	}
	idx, free := freeStates(n, target)
	if len(free) == 0 {
		return make([]float64, n), nil
	}
	q := c.Generator()
	if err := checkReachable(q, idx); err != nil {
		return nil, fmt.Errorf("ctmc: target unreachable: %w", err)
	}
	b := make([]float64, len(free))
	for r := range b {
		b[r] = -1
	}
	h, err := solveHitting(q, idx, b)
	if err != nil {
		return nil, fmt.Errorf("ctmc: hitting-time system: %w", err)
	}
	out := make([]float64, n)
	for r, i := range free {
		if h[r] < 0 {
			return nil, fmt.Errorf("ctmc: negative hitting time %g at state %d", h[r], i)
		}
		out[i] = h[r]
	}
	return out, nil
}

// HittingProbabilities returns, for every state, the probability of
// reaching a target state before an avoid state. Target states get 1,
// avoid states 0. Solved from
//
//	sum_j Q[i][j] p[j] = 0 for transient i.
//
// A state that can reach neither set makes the system singular and is
// an error.
func (c *Chain) HittingProbabilities(target, avoid func(state int) bool) ([]float64, error) {
	n := c.NumStates()
	if n == 0 {
		return nil, errors.New("ctmc: empty chain")
	}
	out := make([]float64, n)
	for i := range out {
		if target(i) {
			if avoid(i) {
				return nil, fmt.Errorf("ctmc: state %d is both target and avoid", i)
			}
			out[i] = 1
		}
	}
	idx, free := freeStates(n, func(i int) bool { return target(i) || avoid(i) })
	if len(free) == 0 {
		return out, nil
	}
	q := c.Generator()
	if err := checkReachable(q, idx); err != nil {
		return nil, fmt.Errorf("ctmc: neither target nor avoid reachable: %w", err)
	}
	b := make([]float64, len(free))
	for r, i := range free {
		q.RangeRow(i, func(j int, v float64) {
			if idx[j] < 0 && target(j) {
				b[r] -= v
			}
		})
	}
	p, err := solveHitting(q, idx, b)
	if err != nil {
		return nil, fmt.Errorf("ctmc: hitting-probability system: %w", err)
	}
	for r, i := range free {
		v := p[r]
		if v < -1e-9 || v > 1+1e-9 {
			return nil, fmt.Errorf("ctmc: hitting probability %g out of range at state %d", v, i)
		}
		out[i] = min(1, max(0, v))
	}
	return out, nil
}

// ConditionalHittingTimes returns, per state, the probability p of
// reaching target before avoid, and the conditional expected time
// E[T | target first] (0 where p = 0 and for boundary states).
// Solved from the standard pair of systems on the transient states:
//
//	Q p = 0 boundary-corrected, then Q g = -p, E = g / p.
func (c *Chain) ConditionalHittingTimes(target, avoid func(state int) bool) (probs, condTimes []float64, err error) {
	n := c.NumStates()
	probs, err = c.HittingProbabilities(target, avoid)
	if err != nil {
		return nil, nil, err
	}
	idx, free := freeStates(n, func(i int) bool { return target(i) || avoid(i) })
	condTimes = make([]float64, n)
	if len(free) == 0 {
		return probs, condTimes, nil
	}
	b := make([]float64, len(free))
	for r, i := range free {
		b[r] = -probs[i]
	}
	g, err := solveHitting(c.Generator(), idx, b)
	if err != nil {
		return nil, nil, fmt.Errorf("ctmc: conditional hitting system: %w", err)
	}
	for r, i := range free {
		if probs[i] > 1e-14 {
			condTimes[i] = g[r] / probs[i]
			if condTimes[i] < 0 {
				return nil, nil, fmt.Errorf("ctmc: negative conditional time %g at state %d", condTimes[i], i)
			}
		}
	}
	return probs, condTimes, nil
}
