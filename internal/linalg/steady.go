package linalg

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"pepatags/internal/numeric"
	"pepatags/internal/obsv"
)

// Metric names registered by the iterative solvers (metricname
// analyzer, tools/govet-suite).
const (
	metricSolveCount      = "solve.count"
	metricSolveIterations = "solve.iterations"
	metricSolveSeconds    = "solve.seconds"
)

// Solver options and defaults for the iterative stationary solvers.
const (
	DefaultMaxIter = 200000
	DefaultEps     = 1e-12
)

// ErrNotConverged is returned when an iterative solver exhausts its
// iteration budget before reaching the requested residual. Solvers
// wrap it with the achieved difference and iteration count, so match
// with errors.Is, not equality.
var ErrNotConverged = errors.New("linalg: iterative solver did not converge")

// notConverged wraps ErrNotConverged with what the solver achieved, so
// callers can report how close a failed solve got.
func notConverged(solver string, diff float64, iters int, eps float64) error {
	return fmt.Errorf("linalg: %s reached diff %.3g after %d iterations (target %.3g): %w",
		solver, diff, iters, eps, ErrNotConverged)
}

// Options configures the iterative stationary solvers.
type Options struct {
	MaxIter int     // maximum sweeps (default DefaultMaxIter); the Krylov stage stops at min(MaxIter, 1000) iterations
	Eps     float64 // convergence threshold on successive-iterate l∞ difference, or on max|πQ| for the Krylov stage (default DefaultEps)
	Omega   float64 // SOR relaxation factor; 1 = plain Gauss-Seidel

	// Workers parallelises the row-partitioned solvers (power,
	// Jacobi) across goroutines; <= 1 runs serially. Gauss-Seidel and
	// GTH are inherently sequential and ignore it.
	Workers int

	// Stats, when non-nil, is filled with iteration counts, the final
	// successive-iterate difference, the final max|πQ| and wall time
	// (also when the solver fails to converge), and by SteadyState
	// with the reason of each stage that failed before the one that
	// answered.
	Stats *obsv.SolveStats

	// Metrics, when non-nil, receives per-solve aggregates at the end
	// of each solve: the "solve.count" and "solve.iterations" counters
	// and the "solve.seconds" histogram. Recording happens once per
	// solve, outside the sweep loop, so attaching a registry costs
	// nothing on the iteration hot path.
	Metrics *obsv.Registry

	// Progress, when non-nil, is called every TraceEvery sweeps (or
	// every 64 when TraceEvery is 0) with the current difference.
	Progress obsv.ProgressFunc

	// TraceEvery samples the successive-iterate difference into
	// Stats.ResidualTrace every TraceEvery sweeps (0 = no trace). The
	// final difference is always included, so the trace ends at the
	// value the solve converged (or gave up) at.
	TraceEvery int

	// Events, when non-nil, receives a "solve.residual" debug event on
	// the same cadence as Progress (so the residual trace streams over
	// /events) and a "solve.done" info event with the outcome.
	Events *obsv.EventLog

	// Start, when non-nil, is the initial iterate of the iterative
	// solvers in place of their default — the uniform distribution, or
	// all mass on state 0 for the Krylov stage — typically the
	// stationary vector of a nearby chain with the same state space
	// (continuation). It is copied, never modified, and must have one
	// entry per state. GTH is direct and ignores it.
	Start []float64
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = DefaultMaxIter
	}
	if o.Eps <= 0 {
		o.Eps = DefaultEps
	}
	if o.Omega <= 0 {
		o.Omega = 1
	}
	return o
}

// initial returns the first iterate of an iterative solve over n
// states: a copy of Start, or the uniform distribution when Start is
// nil.
func (o Options) initial(n int) ([]float64, error) {
	if err := o.checkStart(n); err != nil {
		return nil, err
	}
	pi := make([]float64, n)
	if o.Start == nil {
		for i := range pi {
			pi[i] = 1 / float64(n)
		}
		return pi, nil
	}
	copy(pi, o.Start)
	return pi, nil
}

// checkStart rejects a start vector that does not have n entries.
func (o Options) checkStart(n int) error {
	if o.Start != nil && len(o.Start) != n {
		return fmt.Errorf("linalg: start vector has %d entries for %d states", len(o.Start), n)
	}
	return nil
}

// tick drives the per-sweep instrumentation shared by the iterative
// solvers: trace sampling and progress callbacks.
func (o Options) tick(solver string, iter, n int, diff float64) {
	every := o.TraceEvery
	if o.TraceEvery > 0 && iter%o.TraceEvery == 0 && o.Stats != nil {
		o.Stats.ResidualTrace = append(o.Stats.ResidualTrace, diff)
	}
	if every <= 0 {
		every = 64
	}
	if iter%every == 0 {
		if o.Progress != nil {
			o.Progress(obsv.Progress{Phase: solver, Step: iter, Count: n, Value: diff})
		}
		if o.Events != nil {
			o.Events.Emit(obsv.LevelDebug, "solve.residual", solver, map[string]float64{
				"iter": float64(iter),
				"diff": diff,
			})
		}
	}
}

// finish fills Stats and records the per-solve metrics at the end of a
// solve. residual is the final max|πQ| (0 when the solve produced no
// iterate to measure).
func (o Options) finish(solver string, start time.Time, iters int, diff float64, converged bool, residual float64) {
	if o.Stats != nil {
		o.Stats.Solver = solver
		o.Stats.Iterations = iters
		o.Stats.FinalDiff = diff
		o.Stats.Residual = residual
		o.Stats.Converged = converged
		o.Stats.Workers = max(1, o.Workers)
		o.Stats.Elapsed = time.Since(start)
		// tick samples the trace only on TraceEvery multiples, so a
		// solve stopping between samples would leave the trace short of
		// the converged value; append the final diff in that case.
		if o.TraceEvery > 0 && iters%o.TraceEvery != 0 {
			o.Stats.ResidualTrace = append(o.Stats.ResidualTrace, diff)
		}
	}
	if o.Metrics != nil {
		o.Metrics.Counter(metricSolveCount).Inc()
		o.Metrics.Counter(metricSolveIterations).Add(int64(iters))
		o.Metrics.Histogram(metricSolveSeconds).Observe(time.Since(start).Seconds())
	}
	if o.Events != nil {
		conv := 0.0
		if converged {
			conv = 1
		}
		o.Events.Emit(obsv.LevelInfo, "solve.done", solver, map[string]float64{
			"iterations": float64(iters),
			"final_diff": diff,
			"residual":   residual,
			"converged":  conv,
			"elapsed_s":  time.Since(start).Seconds(),
		})
	}
}

// residual is max|πQ| for the stats and events of a finished solve:
// one SpMV, skipped when nothing would report it.
func (o Options) residual(q *CSR, pi []float64) float64 {
	if o.Stats == nil && o.Events == nil {
		return 0
	}
	return Residual(q, pi)
}

// fallback records that stage failed with err before SteadyState
// moves on: the reason is appended to Stats.Fallbacks (the failed
// stage's other figures are cleared, so Stats describes the stage that
// answers) and a warn-level "solve.fallback" event carries it.
func (o Options) fallback(n int, err error) {
	if o.Stats != nil {
		*o.Stats = obsv.SolveStats{Fallbacks: append(o.Stats.Fallbacks, err.Error())}
	}
	if o.Events != nil {
		o.Events.Emit(obsv.LevelWarn, "solve.fallback", err.Error(), map[string]float64{"states": float64(n)})
	}
}

// SteadyStateGTH computes the stationary distribution of the generator
// matrix q (dense, q[i][i] = -row sum) using the Grassmann–Taksar–Heyman
// algorithm. GTH performs Gaussian elimination without subtractions on
// the diagonal, making it numerically stable for Markov chains. The
// chain must be irreducible. Cost is O(n^3): intended for validation
// and small models.
func SteadyStateGTH(q *Dense) ([]float64, error) {
	if q.Rows != q.Cols {
		return nil, fmt.Errorf("linalg: GTH needs square matrix, got %dx%d", q.Rows, q.Cols)
	}
	n := q.Rows
	if n == 0 {
		return nil, errors.New("linalg: empty matrix")
	}
	if n == 1 {
		return []float64{1}, nil
	}
	a := q.Clone()
	scale := make([]float64, n) // outflow normaliser recorded per eliminated state
	// Elimination: fold state k into states 0..k-1.
	for k := n - 1; k >= 1; k-- {
		// s = total outflow of state k to states 0..k-1.
		var s float64
		row := a.Row(k)
		for j := 0; j < k; j++ {
			s += row[j]
		}
		if s <= 0 {
			return nil, fmt.Errorf("linalg: GTH: state %d has no transitions to lower states (reducible chain?)", k)
		}
		scale[k] = s
		for j := 0; j < k; j++ {
			row[j] /= s
		}
		for i := 0; i < k; i++ {
			aik := a.At(i, k)
			if aik == 0 { //vet:allow floatcmp: structural sparsity skip
				continue
			}
			ri := a.Row(i)
			for j := 0; j < k; j++ {
				if i != j {
					ri[j] += aik * row[j]
				}
			}
		}
	}
	// Back substitution: pi[0] = 1, pi[k] = inflow from lower states
	// divided by state k's recorded outflow.
	pi := make([]float64, n)
	pi[0] = 1
	for k := 1; k < n; k++ {
		var s numeric.Accumulator
		for i := 0; i < k; i++ {
			s.Add(pi[i] * a.At(i, k))
		}
		pi[k] = s.Sum() / scale[k]
	}
	numeric.Normalize(pi)
	return pi, nil
}

// SteadyStateLU computes the stationary vector by solving the linear
// system Q^T pi^T = 0 with the last equation replaced by the
// normalisation constraint. Less stable than GTH; used for
// cross-validation.
func SteadyStateLU(q *Dense) ([]float64, error) {
	if q.Rows != q.Cols {
		return nil, fmt.Errorf("linalg: SteadyStateLU needs square matrix")
	}
	n := q.Rows
	a := q.Transpose()
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	b := make([]float64, n)
	b[n-1] = 1
	pi, err := LUSolve(a, b)
	if err != nil {
		return nil, err
	}
	numeric.Normalize(pi)
	return pi, nil
}

// UniformizationConstant returns a rate Lambda >= max_i |q_ii|,
// slightly inflated to keep the DTMC aperiodic.
func UniformizationConstant(q *CSR) float64 {
	var maxDiag float64
	for i := 0; i < q.Rows; i++ {
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			if q.ColIdx[k] == i {
				if d := -q.Val[k]; d > maxDiag {
					maxDiag = d
				}
			}
		}
	}
	if maxDiag == 0 { //vet:allow floatcmp: degenerate-scaling guard on an exactly-zero diagonal
		maxDiag = 1
	}
	return maxDiag * 1.02
}

// SteadyStatePower computes the stationary distribution of the sparse
// generator q by power iteration on the uniformised DTMC
// P = I + Q/Lambda.
//
// With Options.Workers > 1 the sweep runs row-partitioned over the
// transpose of q: each worker gathers a contiguous block of
// components of pi P, so there is no write contention and the result
// is bit-identical for every worker count (the serial scatter path
// sums in a different order and may differ in the last ulp; both
// agree with GTH to solver tolerance).
func SteadyStatePower(q *CSR, opts Options) ([]float64, error) {
	opts = opts.withDefaults()
	if q.Rows != q.Cols {
		return nil, fmt.Errorf("linalg: SteadyStatePower needs square matrix")
	}
	start := time.Now()
	n := q.Rows
	lambda := UniformizationConstant(q)
	pi, err := opts.initial(n)
	if err != nil {
		return nil, err
	}
	tmp := make([]float64, n)

	if opts.Workers > 1 {
		return steadyStatePowerPar(q, pi, tmp, lambda, start, opts)
	}
	for iter := 1; iter <= opts.MaxIter; iter++ {
		// tmp = pi * Q
		q.VecMulInto(pi, tmp)
		var diff float64
		for i := range tmp {
			next := pi[i] + tmp[i]/lambda
			if next < 0 { // round-off guard
				next = 0
			}
			if d := math.Abs(next - pi[i]); d > diff {
				diff = d
			}
			tmp[i] = next
		}
		copy(pi, tmp)
		opts.tick("power", iter, n, diff)
		if diff < opts.Eps {
			numeric.Normalize(pi)
			opts.finish("power", start, iter, diff, true, opts.residual(q, pi))
			return pi, nil
		}
		if iter == opts.MaxIter {
			numeric.Normalize(pi)
			opts.finish("power", start, iter, diff, false, opts.residual(q, pi))
			return pi, notConverged("power", diff, iter, opts.Eps)
		}
	}
	panic("unreachable")
}

// steadyStatePowerPar is the row-partitioned parallel power sweep. qt
// row j holds column j of q, so gathering qt rows against pi computes
// (pi Q)_j without scatter races.
func steadyStatePowerPar(q *CSR, pi, tmp []float64, lambda float64, start time.Time, opts Options) ([]float64, error) {
	n := q.Rows
	qt := q.Transpose()
	diffs := make([]float64, opts.Workers)
	sweep := func(w, lo, hi int) {
		var diff float64
		for j := lo; j < hi; j++ {
			var s float64
			for k := qt.RowPtr[j]; k < qt.RowPtr[j+1]; k++ {
				s += qt.Val[k] * pi[qt.ColIdx[k]]
			}
			next := pi[j] + s/lambda
			if next < 0 {
				next = 0
			}
			if d := math.Abs(next - pi[j]); d > diff {
				diff = d
			}
			tmp[j] = next
		}
		diffs[w] = diff
	}
	for iter := 1; iter <= opts.MaxIter; iter++ {
		var wg sync.WaitGroup
		for w := 0; w < opts.Workers; w++ {
			lo := w * n / opts.Workers
			hi := (w + 1) * n / opts.Workers
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				sweep(w, lo, hi)
			}(w, lo, hi)
		}
		wg.Wait()
		var diff float64
		for _, d := range diffs {
			if d > diff {
				diff = d
			}
		}
		copy(pi, tmp)
		opts.tick("power", iter, n, diff)
		if diff < opts.Eps {
			numeric.Normalize(pi)
			opts.finish("power", start, iter, diff, true, opts.residual(q, pi))
			return pi, nil
		}
		if iter == opts.MaxIter {
			numeric.Normalize(pi)
			opts.finish("power", start, iter, diff, false, opts.residual(q, pi))
			return pi, notConverged("power", diff, iter, opts.Eps)
		}
	}
	panic("unreachable")
}

// SteadyStateJacobi computes the stationary distribution by damped
// Jacobi sweeps on pi Q = 0:
//
//	pi_j <- (1-w) pi_j + w * sum_{i != j} pi_i q_ij / (-q_jj)
//
// computed entirely from the previous iterate, which makes every
// component independent: with Options.Workers > 1 the sweep is
// row-partitioned like the parallel power method and bit-identical
// for every worker count.
//
// In the variables u_j = pi_j (-q_jj) the undamped sweep is power
// iteration on the embedded jump chain, which is periodic for
// birth-death-like models (the queueing chains of the paper), so plain
// w = 1 can oscillate forever. The damping mixes in the identity
// ("lazy" jump chain), which restores convergence for any irreducible
// chain; when Options.Omega is unset the solver defaults to w = 0.75
// rather than the Gauss-Seidel default of 1.
func SteadyStateJacobi(q *CSR, opts Options) ([]float64, error) {
	if opts.Omega <= 0 {
		opts.Omega = 0.75
	}
	opts = opts.withDefaults()
	if q.Rows != q.Cols {
		return nil, fmt.Errorf("linalg: SteadyStateJacobi needs square matrix")
	}
	start := time.Now()
	n := q.Rows
	qt := q.Transpose() // row j of qt holds column j of q
	diag := make([]float64, n)
	for j := 0; j < n; j++ {
		for k := qt.RowPtr[j]; k < qt.RowPtr[j+1]; k++ {
			if qt.ColIdx[k] == j {
				diag[j] = qt.Val[k]
			}
		}
		if diag[j] >= 0 {
			return nil, fmt.Errorf("linalg: state %d has non-negative diagonal %g (absorbing state?)", j, diag[j])
		}
	}
	pi, err := opts.initial(n)
	if err != nil {
		return nil, err
	}
	tmp := make([]float64, n)
	w := opts.Omega
	workers := max(1, opts.Workers)
	diffs := make([]float64, workers)
	sweep := func(wk, lo, hi int) {
		var diff float64
		for j := lo; j < hi; j++ {
			var s float64
			for k := qt.RowPtr[j]; k < qt.RowPtr[j+1]; k++ {
				if i := qt.ColIdx[k]; i != j {
					s += pi[i] * qt.Val[k]
				}
			}
			next := (1-w)*pi[j] + w*s/(-diag[j])
			if next < 0 {
				next = 0
			}
			if d := math.Abs(next - pi[j]); d > diff {
				diff = d
			}
			tmp[j] = next
		}
		diffs[wk] = diff
	}
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if workers <= 1 || n < 2*workers {
			sweep(0, 0, n)
		} else {
			var wg sync.WaitGroup
			for wk := 0; wk < workers; wk++ {
				lo := wk * n / workers
				hi := (wk + 1) * n / workers
				wg.Add(1)
				go func(wk, lo, hi int) {
					defer wg.Done()
					sweep(wk, lo, hi)
				}(wk, lo, hi)
			}
			wg.Wait()
		}
		var diff float64
		for _, d := range diffs[:workers] {
			if d > diff {
				diff = d
			}
		}
		copy(pi, tmp)
		// Renormalise periodically to avoid drift.
		if iter%16 == 0 {
			numeric.Normalize(pi)
		}
		opts.tick("jacobi", iter, n, diff)
		if diff < opts.Eps {
			numeric.Normalize(pi)
			opts.finish("jacobi", start, iter, diff, true, opts.residual(q, pi))
			return pi, nil
		}
	}
	numeric.Normalize(pi)
	finalDiff := diffs[0]
	for _, d := range diffs[:workers] {
		if d > finalDiff {
			finalDiff = d
		}
	}
	opts.finish("jacobi", start, opts.MaxIter, finalDiff, false, opts.residual(q, pi))
	return pi, notConverged("jacobi", finalDiff, opts.MaxIter, opts.Eps)
}

// SteadyStateGaussSeidel computes the stationary distribution of the
// sparse generator q by (S)SOR sweeps on pi Q = 0:
//
//	pi_j <- (1-w) pi_j + w * sum_{i != j} pi_i q_ij / (-q_jj)
//
// It requires column access, obtained from the transpose of q. Each
// update reads components already updated in the same sweep, which is
// what makes Gauss-Seidel converge faster than Jacobi but also makes
// it inherently sequential; it serves as the serial reference for the
// parallel solvers and ignores Options.Workers.
func SteadyStateGaussSeidel(q *CSR, opts Options) ([]float64, error) {
	opts = opts.withDefaults()
	opts.Workers = 1 // inherently sequential; keep Stats honest
	if q.Rows != q.Cols {
		return nil, fmt.Errorf("linalg: SteadyStateGaussSeidel needs square matrix")
	}
	start := time.Now()
	n := q.Rows
	qt := q.Transpose() // row j of qt holds column j of q
	diag := make([]float64, n)
	for j := 0; j < n; j++ {
		for k := qt.RowPtr[j]; k < qt.RowPtr[j+1]; k++ {
			if qt.ColIdx[k] == j {
				diag[j] = qt.Val[k]
			}
		}
		if diag[j] >= 0 {
			return nil, fmt.Errorf("linalg: state %d has non-negative diagonal %g (absorbing state?)", j, diag[j])
		}
	}
	pi, err := opts.initial(n)
	if err != nil {
		return nil, err
	}
	w := opts.Omega
	var diff float64
	for iter := 1; iter <= opts.MaxIter; iter++ {
		diff = 0
		for j := 0; j < n; j++ {
			var s float64
			for k := qt.RowPtr[j]; k < qt.RowPtr[j+1]; k++ {
				i := qt.ColIdx[k]
				if i != j {
					s += pi[i] * qt.Val[k]
				}
			}
			next := (1-w)*pi[j] + w*s/(-diag[j])
			if next < 0 {
				next = 0
			}
			if d := math.Abs(next - pi[j]); d > diff {
				diff = d
			}
			pi[j] = next
		}
		// Renormalise periodically to avoid drift.
		if iter%16 == 0 {
			numeric.Normalize(pi)
		}
		opts.tick("gauss-seidel", iter, n, diff)
		if diff < opts.Eps {
			numeric.Normalize(pi)
			opts.finish("gauss-seidel", start, iter, diff, true, opts.residual(q, pi))
			return pi, nil
		}
	}
	numeric.Normalize(pi)
	opts.finish("gauss-seidel", start, opts.MaxIter, diff, false, opts.residual(q, pi))
	return pi, notConverged("gauss-seidel", diff, opts.MaxIter, opts.Eps)
}

// SteadyStateGTHSparse solves the sparse generator q by GTH on its
// dense form and, on success, fills opts.Stats with the solver name
// "gth", the wall time and the residual max|πQ|. It is SteadyState's
// direct stage; the other options are ignored.
func SteadyStateGTHSparse(q *CSR, opts Options) ([]float64, error) {
	start := time.Now()
	pi, err := SteadyStateGTH(q.ToDense())
	if err == nil && opts.Stats != nil {
		*opts.Stats = obsv.SolveStats{Solver: "gth", Converged: true, Workers: 1, Elapsed: time.Since(start), Residual: Residual(q, pi)}
	}
	return pi, err
}

// SteadyState picks a solver automatically. The cascade is GTH for
// systems of up to 400 states, then the ILU(0)-preconditioned BiCGSTAB
// stage (SteadyStateBiCGSTAB), then Gauss–Seidel, then power
// iteration; each stage runs only when the one before it fails. opts
// reaches every stage, so workers, a start vector, stats and metrics
// instrumentation survive the automatic choice (the GTH stage fills
// opts.Stats with its solver name, wall time and residual only). A
// stage that fails is named, with its reason, in Stats.Fallbacks and
// in a warn-level "solve.fallback" event. An empty generator, or a
// start vector of the wrong length, is an error whichever stage runs.
func SteadyState(q *CSR, opts Options) ([]float64, error) {
	return new(Solver).SteadyState(q, opts)
}

// SteadyState runs SteadyState's cascade with the solver's Krylov
// structure and work vectors. A generator without the solver's
// sparsity pattern is an error.
func (s *Solver) SteadyState(q *CSR, opts Options) ([]float64, error) {
	if q.Rows == 0 {
		return nil, errors.New("linalg: empty generator")
	}
	if s.pat != nil && !s.pat.matches(q) {
		return nil, fmt.Errorf("linalg: %dx%d generator does not have the solver's %d-state pattern", q.Rows, q.Cols, s.pat.n)
	}
	if err := opts.checkStart(q.Rows); err != nil {
		return nil, err
	}
	if opts.Stats != nil {
		opts.Stats.Fallbacks = nil
	}
	const denseCutoff = 400
	if q.Rows <= denseCutoff {
		pi, err := SteadyStateGTHSparse(q, opts)
		if err == nil {
			return pi, nil
		}
		opts.fallback(q.Rows, err)
	}
	pi, err := s.bicgstab(q, opts.withDefaults())
	if err == nil {
		return pi, nil
	}
	opts.fallback(q.Rows, err)
	if pi, err = SteadyStateGaussSeidel(q, opts); err == nil {
		return pi, nil
	}
	opts.fallback(q.Rows, err)
	return SteadyStatePower(q, opts)
}

// Residual returns max_j |(pi Q)_j|, a direct check that pi is
// stationary for q.
func Residual(q *CSR, pi []float64) float64 {
	r := q.VecMul(pi)
	var m float64
	for _, v := range r {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
