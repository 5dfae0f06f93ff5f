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

// DenseCutoff is the largest system solved directly: SteadyState runs
// GTH on generators of up to DenseCutoff states, and first-passage
// systems of up to DenseCutoff unknowns go to LUSolve (internal/ctmc).
// Larger ones go to the Krylov kernel.
const DenseCutoff = 400

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

// nonFinite is the error of a sweeping solver whose iterate has gone
// NaN, which only a NaN or infinite rate brings about.
func nonFinite(solver string, iter int) error {
	return fmt.Errorf("linalg: %s iterate is not finite after %d sweeps (non-finite rate?)", solver, iter)
}

// Options configures the iterative stationary solvers.
type Options struct {
	MaxIter int     // maximum sweeps (default DefaultMaxIter); the Krylov stage stops at min(MaxIter, 1000) iterations
	Eps     float64 // convergence threshold on successive-iterate l∞ difference, or on max|πQ| for the Krylov stage (default DefaultEps)

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

	// Progress, when non-nil, is called every tickEvery sweeps with the
	// current difference.
	Progress obsv.ProgressFunc

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

// tickEvery is the sweep cadence of Progress and solve.residual events.
const tickEvery = 64

// tick drives the per-sweep instrumentation shared by the iterative
// solvers: progress callbacks and residual events.
func (o Options) tick(solver string, iter, n int, diff float64) {
	if iter%tickEvery == 0 {
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
		o.Stats.Elapsed = time.Since(start)
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
// chain must be irreducible, and its rates finite. The elimination
// works on a copy of q and skips the zero entries of each pivot row
// and column, so its cost is set by the fill of the elimination —
// O(n) per pivot for scanning plus one multiply-add per nonzero pair
// of pivot column and pivot row — and is O(n³) only for a dense
// factor.
func SteadyStateGTH(q *Dense) ([]float64, error) {
	if q.Rows != q.Cols {
		return nil, fmt.Errorf("linalg: GTH needs square matrix, got %dx%d", q.Rows, q.Cols)
	}
	w := acquireGTH(q.Rows)
	defer w.release()
	return gth(q.Clone(), w)
}

// gthWork is the work space of one GTH solve: the dense matrix of
// SteadyStateGTHSparse and the index lists of the elimination.
// Solves of up to DenseCutoff states take theirs from gthPool and
// return it, so a steady stream of small solves allocates no n×n
// matrix; larger ones allocate their own and leave it to the garbage
// collector.
type gthWork struct {
	pooled bool
	a      Dense
	scale  []float64 // outflow normaliser recorded per eliminated state
	cols   []int32   // the nonzero columns j < k of the pivot row k
	vals   []float64 // the pivot row's values at cols
	rows   []int32   // per pivot k, the rows i < k with a[i][k] != 0
	off    []int32   // pivot k's rows are rows[off[k]:off[k-1]]
}

var gthPool = sync.Pool{New: func() any { return new(gthWork) }}

// acquireGTH returns work space for an n-state solve: a pooled one
// when n is at most DenseCutoff, a new one otherwise.
func acquireGTH(n int) *gthWork {
	if n > DenseCutoff {
		return new(gthWork)
	}
	w := gthPool.Get().(*gthWork)
	w.pooled = true
	return w
}

// release returns w to gthPool if it came from there. Only solves of
// up to DenseCutoff states use pooled work space, so the pool never
// pins a larger matrix.
func (w *gthWork) release() {
	if w.pooled {
		gthPool.Put(w)
	}
}

// dense returns w's n×n matrix with every entry zero.
func (w *gthWork) dense(n int) *Dense {
	if cap(w.a.Data) < n*n {
		w.a.Data = make([]float64, n*n)
	}
	w.a.Rows, w.a.Cols, w.a.Data = n, n, w.a.Data[:n*n]
	clear(w.a.Data)
	return &w.a
}

// gth runs the GTH elimination on the generator a in place, with the
// index lists in w, and returns the stationary distribution. It
// reads only off-diagonal entries, and skips the zero ones: at pivot k
// it sums, scales and folds in only the nonzero columns of row k, and
// updates only the rows whose column-k entry is nonzero. Off-diagonal
// rates are nonnegative and stay so through the elimination, so each
// skipped operation would add +0 to a value >= +0 (or scale a +0):
// the result is bit for bit that of the full dense elimination. A
// non-finite outflow or π entry (a NaN or infinite rate) is an error.
func gth(a *Dense, w *gthWork) ([]float64, error) {
	n := a.Rows
	if n == 0 {
		return nil, errors.New("linalg: empty matrix")
	}
	if n == 1 {
		return []float64{1}, nil
	}
	d := a.Data
	if cap(w.scale) < n {
		w.scale, w.off = make([]float64, n), make([]int32, n)
	}
	w.scale, w.off = w.scale[:n], w.off[:n]
	w.cols, w.vals, w.rows = w.cols[:0], w.vals[:0], w.rows[:0]
	// Elimination: fold state k into states 0..k-1.
	for k := n - 1; k >= 1; k-- {
		// s = total outflow of state k to states 0..k-1.
		row := d[k*n : k*n+k]
		w.cols, w.vals = w.cols[:0], w.vals[:0]
		var s float64
		for j, v := range row {
			if v != 0 { //vet:allow floatcmp: structural sparsity skip
				w.cols = append(w.cols, int32(j))
				w.vals = append(w.vals, v)
				s += v
			}
		}
		switch {
		case math.IsNaN(s) || math.IsInf(s, 0):
			return nil, fmt.Errorf("linalg: GTH: state %d has outflow %g to lower states (non-finite rate?)", k, s)
		case s <= 0:
			return nil, fmt.Errorf("linalg: GTH: state %d has no transitions to lower states (reducible chain?)", k)
		}
		w.scale[k] = s
		for m := range w.vals {
			w.vals[m] /= s
		}
		// Fold row k into every row i < k that reaches state k. No
		// later pivot writes column k, so these rows are also its
		// nonzeros in the back substitution. The update also reaches
		// a[i][i] when i is a column of row k; no step reads a
		// diagonal entry.
		w.off[k] = int32(len(w.rows))
		for i := 0; i < k; i++ {
			aik := d[i*n+k]
			if aik == 0 { //vet:allow floatcmp: structural sparsity skip
				continue
			}
			w.rows = append(w.rows, int32(i))
			ri := d[i*n : i*n+k]
			for m, j := range w.cols {
				ri[j] += aik * w.vals[m]
			}
		}
	}
	w.off[0] = int32(len(w.rows))
	// Back substitution: pi[0] = 1, pi[k] = inflow from lower states
	// divided by state k's recorded outflow.
	pi := make([]float64, n)
	pi[0] = 1
	for k := 1; k < n; k++ {
		var s numeric.Accumulator
		for _, i := range w.rows[w.off[k]:w.off[k-1]] {
			s.Add(pi[i] * d[int(i)*n+k])
		}
		pi[k] = s.Sum() / w.scale[k]
		if math.IsNaN(pi[k]) || math.IsInf(pi[k], 0) {
			return nil, fmt.Errorf("linalg: GTH: state %d has probability %g (non-finite rate?)", k, pi[k])
		}
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
	for iter := 1; iter <= opts.MaxIter; iter++ {
		// tmp = pi * Q
		q.VecMulInto(pi, tmp)
		var diff float64
		for i := range tmp {
			next := pi[i] + tmp[i]/lambda
			if next < 0 { // round-off guard
				next = 0
			}
			if d := math.Abs(next - pi[i]); d > diff || math.IsNaN(d) {
				diff = d
			}
			tmp[i] = next
		}
		copy(pi, tmp)
		if math.IsNaN(diff) {
			opts.finish("power", start, iter, diff, false, 0)
			return nil, nonFinite("power", iter)
		}
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

// SteadyStateGaussSeidel computes the stationary distribution of the
// sparse generator q by Gauss-Seidel sweeps on pi Q = 0:
//
//	pi_j <- sum_{i != j} pi_i q_ij / (-q_jj)
//
// It requires column access, obtained from the transpose of q. Each
// update reads components already updated in the same sweep.
func SteadyStateGaussSeidel(q *CSR, opts Options) ([]float64, error) {
	opts = opts.withDefaults()
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
			next := s / (-diag[j])
			if next < 0 {
				next = 0
			}
			if d := math.Abs(next - pi[j]); d > diff || math.IsNaN(d) {
				diff = d
			}
			pi[j] = next
		}
		if math.IsNaN(diff) {
			opts.finish("gauss-seidel", start, iter, diff, false, 0)
			return nil, nonFinite("gauss-seidel", iter)
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
// dense form, scattered into a work matrix that solves of up to
// DenseCutoff states share through a pool, and, on success, fills
// opts.Stats with the solver name "gth", the wall time and the
// residual max|πQ|. It is SteadyState's direct stage; the other
// options are ignored.
func SteadyStateGTHSparse(q *CSR, opts Options) ([]float64, error) {
	if q.Rows != q.Cols {
		return nil, fmt.Errorf("linalg: GTH needs square matrix, got %dx%d", q.Rows, q.Cols)
	}
	start := time.Now()
	w := acquireGTH(q.Rows)
	a := w.dense(q.Rows)
	q.scatter(a)
	pi, err := gth(a, w)
	w.release()
	if err == nil && opts.Stats != nil {
		*opts.Stats = obsv.SolveStats{Solver: "gth", Converged: true, Elapsed: time.Since(start), Residual: Residual(q, pi)}
	}
	return pi, err
}

// SteadyState picks a solver automatically. The cascade is GTH for
// systems of up to DenseCutoff (400) states, then the ILU(0)-preconditioned BiCGSTAB
// stage (SteadyStateBiCGSTAB), then Gauss–Seidel, then power
// iteration; each stage runs only when the one before it fails. opts
// reaches every stage, so a start vector, stats and metrics
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
	if q.Rows <= DenseCutoff {
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
