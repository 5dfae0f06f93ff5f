package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"pepatags/internal/numeric"
)

// krylovMaxIter caps the Krylov stage's iterations below Options.MaxIter,
// whose default budgets Gauss–Seidel sweeps: a preconditioned Krylov
// solve that has not converged after this many steps is better handed
// to the next stage than continued.
const krylovMaxIter = 1000

// Once an iterate meets Options.Eps, the Krylov stage keeps going for
// up to krylovPolish more iterations while the residual is above
// krylovAim·Eps, and returns the best iterate it saw. The margin buys
// accuracy where it is cheap: on the TAG variants it brings every
// measure that moves against Gauss–Seidel closer to GTH, for about
// one extra iteration per solve.
const (
	krylovAim    = 0.1
	krylovPolish = 3
)

// krylovStall is how many iterations the Krylov stage may go without
// lowering its best residual estimate by krylovGain before it gives
// up as stagnated, typically on a round-off floor above Options.Eps.
const (
	krylovStall = 100
	krylovGain  = 0.5
)

// errBreakdown is wrapped by the Krylov stage when BiCGSTAB breaks
// down (a vanishing inner product) or its iterate stops being finite.
var errBreakdown = errors.New("linalg: bicgstab breakdown")

// KrylovPattern is the per-shape structure of SteadyState's Krylov
// stage, shared by every generator with one sparsity pattern. The
// stage solves the reduced system: Qᵀ without state 0's row and
// column, so that π_0 is pinned to 1. The pattern holds that reduced
// matrix in CSR form, the position of each row's diagonal, and for
// each entry the index in q.Val it is gathered from, so a solve only
// gathers values and factors them. The reduced system numbers the
// states in reverse, state n-1 first: on the TAG chains, whose states
// are numbered outward from the empty system, ILU(0) in that order
// takes about a fifth fewer BiCGSTAB iterations. A KrylovPattern is
// immutable and safe for concurrent use.
type KrylovPattern struct {
	n      int     // states; the reduced system has n-1 unknowns
	rowPtr []int   // reduced Qᵀ: row and column n-1-i belong to state i
	colIdx []int32 // half the index traffic of int in the kernels
	diag   []int   // position of each reduced row's diagonal entry
	src    []int   // q.Val index of each reduced entry

	// qRowPtr and qColIdx are the generator's own pattern, kept to
	// check that a generator handed to a solve has this shape.
	qRowPtr, qColIdx []int
}

// NewKrylovPattern derives the Krylov stage's structure from the
// generator q. Every state but state 0 must have a diagonal entry;
// a state without one has no outflow, and the chain is reducible.
func NewKrylovPattern(q *CSR) (*KrylovPattern, error) {
	if q.Rows != q.Cols || q.Rows == 0 {
		return nil, fmt.Errorf("linalg: Krylov stage needs a non-empty square generator, got %dx%d", q.Rows, q.Cols)
	}
	n := q.Rows
	m := n - 1
	p := &KrylovPattern{n: n, rowPtr: make([]int, m+1), diag: make([]int, m), qRowPtr: q.RowPtr, qColIdx: q.ColIdx}
	// Reduced row n-1-j gathers column j of q from rows 1..n-1.
	for i := 1; i < n; i++ {
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			if j := q.ColIdx[k]; j > 0 {
				p.rowPtr[n-j]++
			}
		}
	}
	for r := 0; r < m; r++ {
		p.rowPtr[r+1] += p.rowPtr[r]
	}
	nnz := p.rowPtr[m]
	p.colIdx = make([]int32, nnz)
	p.src = make([]int, nnz)
	next := make([]int, m)
	copy(next, p.rowPtr[:m])
	for r := range p.diag {
		p.diag[r] = -1
	}
	// Walking q's rows downwards puts each reduced row's columns in
	// ascending order, which the ILU(0) factorisation relies on.
	for i := n - 1; i > 0; i-- {
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			j := q.ColIdx[k]
			if j == 0 {
				continue
			}
			r := n - 1 - j
			at := next[r]
			next[r]++
			p.colIdx[at] = int32(n - 1 - i)
			p.src[at] = k
			if i == j {
				p.diag[r] = at
			}
		}
	}
	for r, d := range p.diag {
		if d < 0 {
			return nil, fmt.Errorf("linalg: state %d has no diagonal entry (absorbing state?)", n-1-r)
		}
	}
	return p, nil
}

// matches reports whether q has the sparsity pattern p was built from.
func (p *KrylovPattern) matches(q *CSR) bool {
	return q.Rows == p.n && q.Cols == p.n && slices.Equal(q.RowPtr, p.qRowPtr) && slices.Equal(q.ColIdx, p.qColIdx)
}

// Solver runs SteadyState's cascade over generators of one shape,
// reusing the Krylov stage's structure and its work vectors from one
// solve to the next. Its solves return the same π, bit for bit, as
// SteadyState. A Solver is not safe for concurrent use.
type Solver struct {
	pat *KrylovPattern

	// Work vectors of the Krylov stage, over the reduced system.
	a, lu, inv                []float64 // matrix values, ILU(0) factor, inverse pivots
	b, x, r, rhat, p, v, s, t []float64
	phat, shat                []float64
	residual                  []float64 // πQ, over all n states
	pos                       []int     // column -> entry of the row being factored, or -1
}

// NewSolver returns a Solver over generators with p's pattern. A nil
// p derives the pattern from the first generator that reaches the
// Krylov stage.
func NewSolver(p *KrylovPattern) *Solver { return &Solver{pat: p} }

// SteadyStateBiCGSTAB computes the stationary distribution of the
// sparse generator q with SteadyState's Krylov stage on its own:
// ILU(0)-preconditioned BiCGSTAB on the reduced system Qᵀ with π_0
// pinned to 1, stopped when the normalised π has max|πQ| <= Eps (it
// aims a decade lower while that takes only a few more steps). It
// honours Options.Start (scaled so that its entry 0 is 1; a start
// whose entry 0 is not positive cannot be scaled and is ignored), Stats,
// Metrics, Progress, TraceEvery and Events; it is serial and ignores
// Workers and Omega. It fails, instead of returning NaNs, when the
// chain is reducible, when BiCGSTAB breaks down, and when the
// residual stagnates or the budget of min(MaxIter, 1000) iterations
// runs out.
func SteadyStateBiCGSTAB(q *CSR, opts Options) ([]float64, error) {
	if q.Rows == 0 {
		return nil, errors.New("linalg: empty generator")
	}
	if err := opts.checkStart(q.Rows); err != nil {
		return nil, err
	}
	return new(Solver).bicgstab(q, opts.withDefaults())
}

// ensure sizes the work vectors for the pattern.
func (s *Solver) ensure() {
	m, nnz := s.pat.n-1, len(s.pat.colIdx)
	if len(s.a) == nnz && len(s.x) == m {
		return
	}
	s.a, s.lu = make([]float64, nnz), make([]float64, nnz)
	vecs := []*[]float64{&s.inv, &s.b, &s.x, &s.r, &s.rhat, &s.p, &s.v, &s.s, &s.t, &s.phat, &s.shat}
	buf := make([]float64, len(vecs)*m+s.pat.n)
	for i, v := range vecs {
		*v = buf[i*m : (i+1)*m : (i+1)*m]
	}
	s.residual = buf[len(vecs)*m:]
	s.pos = make([]int, m)
	for i := range s.pos {
		s.pos[i] = -1
	}
	// A fixed, dense, positive shadow residual. The customary r̂ = r_0
	// is as sparse as b (the few transitions out of state 0), and
	// BiCGSTAB then stagnates or diverges on the stiff H2 chains.
	rng := rand.New(rand.NewPCG(1, 1))
	for i := range s.rhat {
		s.rhat[i] = 1 - rng.Float64()
	}
}

// factor gathers q's values into the reduced matrix and computes its
// ILU(0) factor: unit lower L and upper U sharing the matrix's
// pattern. For an irreducible generator −(reduced Qᵀ) is a nonsingular
// M-matrix, so every pivot is negative; a pivot that is not means the
// chain is reducible.
func (s *Solver) factor(q *CSR) error {
	p := s.pat
	for k, src := range p.src {
		s.a[k] = q.Val[src]
	}
	copy(s.lu, s.a)
	lu, pos := s.lu, s.pos
	for i := range p.diag {
		lo, hi := p.rowPtr[i], p.rowPtr[i+1]
		for k := lo; k < hi; k++ {
			pos[p.colIdx[k]] = k
		}
		for k := lo; k < p.diag[i]; k++ {
			c := p.colIdx[k]
			lu[k] *= s.inv[c]
			l := lu[k]
			for kk := p.diag[c] + 1; kk < p.rowPtr[c+1]; kk++ {
				if at := pos[p.colIdx[kk]]; at >= 0 {
					lu[at] -= l * lu[kk]
				}
			}
		}
		for k := lo; k < hi; k++ {
			pos[p.colIdx[k]] = -1
		}
		d := lu[p.diag[i]]
		if !(d < 0) || math.IsInf(d, 0) {
			return fmt.Errorf("linalg: ILU(0) pivot %g at state %d (reducible chain?)", d, p.n-1-i)
		}
		s.inv[i] = 1 / d
	}
	return nil
}

// precondition solves (LU) z = r.
func (s *Solver) precondition(r, z []float64) {
	p, lu := s.pat, s.lu
	r = r[:len(z)]
	for i := range z {
		cols := p.colIdx[p.rowPtr[i]:p.diag[i]]
		vals := lu[p.rowPtr[i]:p.diag[i]]
		vals = vals[:len(cols)]
		v := r[i]
		for k, c := range cols {
			v -= vals[k] * z[c]
		}
		z[i] = v
	}
	inv := s.inv[:len(z)]
	for i := len(z) - 1; i >= 0; i-- {
		cols := p.colIdx[p.diag[i]+1 : p.rowPtr[i+1]]
		vals := lu[p.diag[i]+1 : p.rowPtr[i+1]]
		vals = vals[:len(cols)]
		v := z[i]
		for k, c := range cols {
			v -= vals[k] * z[c]
		}
		z[i] = v * inv[i]
	}
}

// apply computes y = A x for the reduced matrix A and returns the
// inner product of w and y.
func (s *Solver) apply(x, y, w []float64) float64 {
	p := s.pat
	w = w[:len(y)]
	var d float64
	for i := range y {
		cols := p.colIdx[p.rowPtr[i]:p.rowPtr[i+1]]
		vals := s.a[p.rowPtr[i]:p.rowPtr[i+1]]
		vals = vals[:len(cols)]
		var v float64
		for k, c := range cols {
			v += vals[k] * x[c]
		}
		y[i] = v
		d += w[i] * v
	}
	return d
}

func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// estimate is the stationarity error of the iterate [1, x] implied by
// the reduced residual r, without an SpMV on Q: (πQ)_j = −r_j for j ≥ 1
// and (πQ)_0 = Σ r_j, since the rows of Q sum to zero; normalising π
// divides both by 1 + Σ x. An iterate whose mass is not positive is as
// far from stationary as can be.
func estimate(x, r []float64) float64 {
	var sumX, sumR, maxR float64
	for i, v := range r {
		sumX += x[i]
		sumR += v
		maxR = max(maxR, math.Abs(v))
	}
	return scaledResidual(sumX, sumR, maxR)
}

// scaledResidual is estimate's result from Σx, Σr and max|r_j|.
func scaledResidual(sumX, sumR, maxR float64) float64 {
	if !(1+sumX > 0) {
		return math.MaxFloat64
	}
	return max(maxR, math.Abs(sumR)) / (1 + sumX)
}

// stationary builds the normalised π = [1, x]/(1 + Σx), with round-off
// negatives clamped to zero, and returns it with its max|πQ|.
func (s *Solver) stationary(q *CSR) ([]float64, float64) {
	n := s.pat.n
	pi := make([]float64, n)
	pi[0] = 1
	for i := 1; i < n; i++ {
		pi[i] = max(s.x[n-1-i], 0)
	}
	numeric.Normalize(pi)
	q.VecMulInto(pi, s.residual)
	var res float64
	for _, v := range s.residual {
		res = max(res, math.Abs(v))
	}
	return pi, res
}

// bicgstab is SteadyState's Krylov stage: right-preconditioned
// BiCGSTAB on the reduced system A x = b, A = reduced Qᵀ, b = −(row 0
// of Q without its diagonal). The recursive residual gives a free
// estimate of max|πQ|; whenever it is at most Eps the stage checks the
// real residual with one SpMV on Q. A real residual above Eps restarts
// the recursion from the true residual; one at most krylovAim·Eps
// stops the solve; one in between is kept, and the best kept iterate
// is returned after krylovPolish more iterations.
func (s *Solver) bicgstab(q *CSR, opts Options) ([]float64, error) {
	const solver = "bicgstab"
	start := time.Now()
	opts.Workers = 1
	if s.pat == nil {
		pat, err := NewKrylovPattern(q)
		if err != nil {
			return nil, err
		}
		s.pat = pat
	}
	n := q.Rows
	if n == 1 {
		pi := []float64{1}
		opts.finish(solver, start, 0, 0, true, 0)
		return pi, nil
	}
	s.ensure()
	fail := func(iters int, diff float64, err error) ([]float64, error) {
		opts.finish(solver, start, iters, diff, false, 0)
		return nil, err
	}
	if err := s.factor(q); err != nil {
		return fail(0, math.Inf(1), err)
	}

	b, x, r := s.b, s.x, s.r
	clear(b)
	for k := q.RowPtr[0]; k < q.RowPtr[1]; k++ {
		if j := q.ColIdx[k]; j > 0 {
			b[n-1-j] = -q.Val[k]
		}
	}
	if st := opts.Start; st != nil && st[0] > 0 && !math.IsInf(st[0], 0) {
		for i := 1; i < n; i++ {
			x[n-1-i] = st[i] / st[0]
		}
	} else {
		clear(x)
	}
	trueResidual := func() {
		s.apply(x, r, r)
		for i := range r {
			r[i] = b[i] - r[i]
		}
	}
	trueResidual()

	maxIter := min(opts.MaxIter, krylovMaxIter)
	aim := opts.Eps * krylovAim
	var (
		met    []float64 // the best π so far with max|πQ| <= Eps
		metRes float64   // and its residual
		metAt  int       // the iteration that first met Eps
	)
	est := estimate(x, r)
	best, bestAt := est, 0
	var rho, alpha, omega float64
	restart := true
	for iter := 0; ; iter++ {
		if math.IsNaN(est) || math.IsInf(est, 0) {
			return fail(iter, est, fmt.Errorf("%w: non-finite residual after %d iterations", errBreakdown, iter))
		}
		if est <= opts.Eps {
			pi, res := s.stationary(q)
			switch {
			case res <= aim:
				opts.finish(solver, start, iter, est, true, res)
				return pi, nil
			case res <= opts.Eps:
				if met == nil {
					metAt = iter
				}
				if met == nil || res < metRes {
					met, metRes = pi, res
				}
			default:
				// The recursion has drifted from the true residual.
				trueResidual()
				est, restart = estimate(x, r), true
			}
		}
		if met != nil && (iter-metAt >= krylovPolish || iter == maxIter) {
			opts.finish(solver, start, iter, est, true, metRes)
			return met, nil
		}
		if est < krylovGain*best {
			best, bestAt = est, iter
		}
		if iter == maxIter || iter-bestAt > krylovStall {
			_, res := s.stationary(q)
			err := fmt.Errorf("linalg: %s reached residual %.3g after %d iterations (target %.3g): %w",
				solver, res, iter, opts.Eps, ErrNotConverged)
			opts.finish(solver, start, iter, est, false, res)
			return nil, err
		}
		if iter > 0 {
			opts.tick(solver, iter, n, est)
		}

		if restart {
			clear(s.p)
			clear(s.v)
			rho, alpha, omega = 1, 1, 1
			restart = false
		}
		rhoNext := dot(s.rhat, r)
		if rhoNext == 0 { //vet:allow floatcmp: exact breakdown test
			return fail(iter, est, fmt.Errorf("%w: rho = 0 at iteration %d", errBreakdown, iter))
		}
		beta := rhoNext / rho * (alpha / omega)
		rho = rhoNext
		for i := range s.p {
			s.p[i] = r[i] + beta*(s.p[i]-omega*s.v[i])
		}
		s.precondition(s.p, s.phat)
		den := s.apply(s.phat, s.v, s.rhat)
		if den == 0 { //vet:allow floatcmp: exact breakdown test
			return fail(iter, est, fmt.Errorf("%w: (r̂, v) = 0 at iteration %d", errBreakdown, iter))
		}
		alpha = rho / den
		for i := range s.s {
			s.s[i] = r[i] - alpha*s.v[i]
		}
		s.precondition(s.s, s.shat)
		ts := s.apply(s.shat, s.t, s.s)
		omega = 0
		if tt := dot(s.t, s.t); tt > 0 {
			omega = ts / tt
		}
		// Update x and r, and estimate the residual in the same pass.
		var sumX, sumR, maxR float64
		for i := range x {
			x[i] += alpha*s.phat[i] + omega*s.shat[i]
			r[i] = s.s[i] - omega*s.t[i]
			sumX += x[i]
			sumR += r[i]
			maxR = max(maxR, math.Abs(r[i]))
		}
		est = scaledResidual(sumX, sumR, maxR)
		if omega == 0 { //vet:allow floatcmp: exact breakdown test
			// s is orthogonal to A M⁻¹ s: the next step would divide by
			// zero, so restart from the true residual.
			trueResidual()
			est, restart = estimate(x, r), true
		}
	}
}
