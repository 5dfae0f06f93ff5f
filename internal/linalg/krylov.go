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
// SteadyState. A π from the Krylov stage is one of two answer buffers
// the Solver keeps and uses in turn: it stays valid through the
// Solver's next solve, which may start from it, and is overwritten by
// the one after. A Solver is not safe for concurrent use.
type Solver struct {
	pat  *KrylovPattern
	k    kernel     // over the reduced system
	goal stationary // the generator being solved and its πQ
	out  [2][]float64
	last int // the index in out of the last answer
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
// Metrics, Progress and Events. It fails, instead of
// returning NaNs, when the chain is reducible, when BiCGSTAB breaks
// down, and when the residual stagnates or the budget of
// min(MaxIter, 1000) iterations runs out.
func SteadyStateBiCGSTAB(q *CSR, opts Options) ([]float64, error) {
	if q.Rows == 0 {
		return nil, errors.New("linalg: empty generator")
	}
	if err := opts.checkStart(q.Rows); err != nil {
		return nil, err
	}
	return new(Solver).bicgstab(q, opts.withDefaults())
}

// kernel is the Krylov solver for A x = b, where A is sparse with its
// diagonal stored and each row's columns ascending, and −A is a
// nonsingular M-matrix: ILU(0)-preconditioned BiCGSTAB. It holds A,
// its ILU(0) factor and the work vectors, so a solve on a new A with
// the same pattern only refills a and factors it.
type kernel struct {
	rowPtr []int
	colIdx []int32 // half the index traffic of int in the loops
	diag   []int   // position of each row's diagonal entry

	a, lu, inv                []float64 // A's values, ILU(0) factor, inverse pivots
	b, x, r, rhat, p, v, s, t []float64
	phat, shat                []float64
	pos                       []int // column -> entry of the row being factored, or -1
}

// size allocates the factor and the work vectors for A's pattern, and
// returns a vector of extra entries for the caller's own use.
func (k *kernel) size(extra int) []float64 {
	m := len(k.diag)
	k.lu = make([]float64, len(k.colIdx))
	vecs := []*[]float64{&k.inv, &k.b, &k.x, &k.r, &k.rhat, &k.p, &k.v, &k.s, &k.t, &k.phat, &k.shat}
	buf := make([]float64, len(vecs)*m+extra)
	for i, v := range vecs {
		*v = buf[i*m : (i+1)*m : (i+1)*m]
	}
	k.pos = make([]int, m)
	for i := range k.pos {
		k.pos[i] = -1
	}
	// A fixed, dense, positive shadow residual. The customary r̂ = r_0
	// is as sparse as b (for a steady state, the few transitions out
	// of state 0), and BiCGSTAB then stagnates or diverges on the
	// stiff H2 chains.
	rng := rand.New(rand.NewPCG(1, 1))
	for i := range k.rhat {
		k.rhat[i] = 1 - rng.Float64()
	}
	return buf[len(vecs)*m:]
}

// factor computes the ILU(0) factor of A: unit lower L and upper U
// sharing A's pattern. Every pivot of a nonsingular M-matrix −A is
// positive, so every pivot here is negative; factor returns the first
// row whose pivot is not, or -1.
func (k *kernel) factor() int {
	copy(k.lu, k.a)
	lu, pos := k.lu, k.pos
	for i := range k.diag {
		lo, hi := k.rowPtr[i], k.rowPtr[i+1]
		for e := lo; e < hi; e++ {
			pos[k.colIdx[e]] = e
		}
		for e := lo; e < k.diag[i]; e++ {
			c := k.colIdx[e]
			lu[e] *= k.inv[c]
			l := lu[e]
			for ee := k.diag[c] + 1; ee < k.rowPtr[c+1]; ee++ {
				if at := pos[k.colIdx[ee]]; at >= 0 {
					lu[at] -= l * lu[ee]
				}
			}
		}
		for e := lo; e < hi; e++ {
			pos[k.colIdx[e]] = -1
		}
		d := lu[k.diag[i]]
		if !(d < 0) || math.IsInf(d, 0) {
			return i
		}
		k.inv[i] = 1 / d
	}
	return -1
}

// The iteration's sweeps each make one pass over memory. The forward
// sweep of ILU(0)'s unit lower factor L forms the vector it solves for
// row by row as it reaches it (forwardP, forwardS), instead of in a
// loop of its own before the sweep; the SpMV returns ‖Ax‖² beside the
// inner product it already took. Each vector entry and each sum still
// takes the same floating-point operations in the same order as in
// separate passes, so every iterate is bit-identical to what separate
// loops compute (on amd64, where Go never fuses a multiply and an add).

// forwardP forms p = r + β(p − ωv) and solves L z = p, both row by row
// in one pass.
func (k *kernel) forwardP(beta, omega float64, z []float64) {
	p := k.p[:len(z)]
	r, v := k.r[:len(z)], k.v[:len(z)]
	rowPtr, diag, col, lu := k.rowPtr[:len(z)], k.diag[:len(z)], k.colIdx, k.lu
	for i := range z {
		u := r[i] + beta*(p[i]-omega*v[i])
		p[i] = u
		z[i] = subRow(u, lu, col, z, rowPtr[i], diag[i])
	}
}

// forwardS forms s = r − αv and solves L z = s, both row by row in one
// pass.
func (k *kernel) forwardS(alpha float64, z []float64) {
	s := k.s[:len(z)]
	r, v := k.r[:len(z)], k.v[:len(z)]
	rowPtr, diag, col, lu := k.rowPtr[:len(z)], k.diag[:len(z)], k.colIdx, k.lu
	for i := range z {
		u := r[i] - alpha*v[i]
		s[i] = u
		z[i] = subRow(u, lu, col, z, rowPtr[i], diag[i])
	}
}

// backward solves U z = y in place, U ILU(0)'s upper factor; with the
// forward sweep before it, z = (LU)⁻¹ u.
func (k *kernel) backward(z []float64) {
	rowPtr, diag, inv := k.rowPtr[1:len(z)+1], k.diag[:len(z)], k.inv[:len(z)]
	for i := len(z) - 1; i >= 0; i-- {
		z[i] = subRow(z[i], k.lu, k.colIdx, z, diag[i]+1, rowPtr[i]) * inv[i]
	}
}

// subRow returns y − Σ lu[e]·z[col[e]] over the entries lo ≤ e < hi of
// one row, subtracted in order.
func subRow(y float64, lu []float64, col []int32, z []float64, lo, hi int) float64 {
	lu = lu[:len(col)]
	for e := lo; e < hi; e++ {
		y -= lu[e] * z[col[e]]
	}
	return y
}

// apply computes y = A x and returns the inner products (w, y) and
// (y, y), each summed in row order.
func (k *kernel) apply(x, y, w []float64) (wy, yy float64) {
	w = w[:len(y)]
	rowPtr, col, a := k.rowPtr[:len(y)+1], k.colIdx, k.a[:len(k.colIdx)]
	for i := range y {
		var v float64
		for e, hi := rowPtr[i], rowPtr[i+1]; e < hi; e++ {
			v += a[e] * x[col[e]]
		}
		y[i] = v
		wy += w[i] * v
		yy += v * v
	}
	return wy, yy
}

func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// goal is what a kernel solve aims at. estimate turns Σx, Σr and
// max|r_i| of the iterate x and its recursive residual r into the
// error measure the solve stops on, without an SpMV; check measures
// the true error of x with one SpMV and returns the answer x stands
// for, in a buffer the goal reuses at the next check (the solve
// copies the answer it keeps).
type goal interface {
	estimate(sumX, sumR, maxR float64) float64
	check(x []float64) (answer []float64, res float64)
}

// estimate is g's error measure of the current iterate, from its
// recursive residual.
func (k *kernel) estimate(g goal) float64 {
	var sumX, sumR, maxR float64
	for i, v := range k.r {
		sumX += k.x[i]
		sumR += v
		maxR = max(maxR, math.Abs(v))
	}
	return g.estimate(sumX, sumR, maxR)
}

// solve runs right-preconditioned BiCGSTAB on A x = b from the x in
// k.x, after factor. The recursive residual gives a free estimate of
// g's error measure; whenever it is at most opts.Eps the solve checks
// the true measure with one SpMV. A true measure above Eps restarts
// the recursion from the true residual; one at most krylovAim·Eps
// stops the solve; one in between is kept, and the best kept answer
// is returned after krylovPolish more iterations. It gives up on a
// breakdown, a non-finite residual, krylovStall iterations without
// progress, or min(opts.MaxIter, krylovMaxIter) iterations. The answer
// is returned in out, which has the length of g's answers. solver and
// count name the solve and its size in opts's instrumentation, and
// start is when it began.
func (k *kernel) solve(g goal, opts Options, solver string, count int, start time.Time, out []float64) ([]float64, error) {
	b, x, r := k.b, k.x, k.r
	fail := func(iters int, diff float64, err error) ([]float64, error) {
		opts.finish(solver, start, iters, diff, false, 0)
		return nil, err
	}
	trueResidual := func() {
		k.apply(x, r, r)
		for i := range r {
			r[i] = b[i] - r[i]
		}
	}
	trueResidual()

	maxIter := min(opts.MaxIter, krylovMaxIter)
	aim := opts.Eps * krylovAim
	var (
		met    bool    // out holds the best answer so far with a measure <= Eps
		metRes float64 // its measure
		metAt  int     // the iteration that first met Eps
	)
	est := k.estimate(g)
	best, bestAt := est, 0
	var rho, alpha, omega float64
	restart := true
	for iter := 0; ; iter++ {
		if math.IsNaN(est) || math.IsInf(est, 0) {
			return fail(iter, est, fmt.Errorf("%w: non-finite residual after %d iterations", errBreakdown, iter))
		}
		if est <= opts.Eps {
			ans, res := g.check(x)
			switch {
			case res <= aim:
				opts.finish(solver, start, iter, est, true, res)
				copy(out, ans)
				return out, nil
			case res <= opts.Eps:
				if !met {
					metAt = iter
				}
				if !met || res < metRes {
					copy(out, ans)
					met, metRes = true, res
				}
			default:
				// The recursion has drifted from the true residual.
				trueResidual()
				est, restart = k.estimate(g), true
			}
		}
		if met && (iter-metAt >= krylovPolish || iter == maxIter) {
			opts.finish(solver, start, iter, est, true, metRes)
			return out, nil
		}
		if est < krylovGain*best {
			best, bestAt = est, iter
		}
		if iter == maxIter || iter-bestAt > krylovStall {
			_, res := g.check(x)
			err := fmt.Errorf("linalg: %s reached residual %.3g after %d iterations (target %.3g): %w",
				solver, res, iter, opts.Eps, ErrNotConverged)
			opts.finish(solver, start, iter, est, false, res)
			return nil, err
		}
		if iter > 0 {
			opts.tick(solver, iter, count, est)
		}

		if restart {
			clear(k.p)
			clear(k.v)
			rho, alpha, omega = 1, 1, 1
			restart = false
		}
		rhoNext := dot(k.rhat, r)
		if rhoNext == 0 { //vet:allow floatcmp: exact breakdown test
			return fail(iter, est, fmt.Errorf("%w: rho = 0 at iteration %d", errBreakdown, iter))
		}
		beta := rhoNext / rho * (alpha / omega)
		rho = rhoNext
		k.forwardP(beta, omega, k.phat)
		k.backward(k.phat)
		den, _ := k.apply(k.phat, k.v, k.rhat)
		if den == 0 { //vet:allow floatcmp: exact breakdown test
			return fail(iter, est, fmt.Errorf("%w: (r̂, v) = 0 at iteration %d", errBreakdown, iter))
		}
		alpha = rho / den
		k.forwardS(alpha, k.shat)
		k.backward(k.shat)
		ts, tt := k.apply(k.shat, k.t, k.s)
		omega = 0
		if tt > 0 {
			omega = ts / tt
		}
		// Update x and r, and gather the estimate's sums in the same pass.
		var sumX, sumR, maxR float64
		for i := range x {
			x[i] += alpha*k.phat[i] + omega*k.shat[i]
			r[i] = k.s[i] - omega*k.t[i]
			sumX += x[i]
			sumR += r[i]
			maxR = max(maxR, math.Abs(r[i]))
		}
		est = g.estimate(sumX, sumR, maxR)
		if omega == 0 { //vet:allow floatcmp: exact breakdown test
			// s is orthogonal to A M⁻¹ s: the next step would divide by
			// zero, so restart from the true residual.
			trueResidual()
			est, restart = k.estimate(g), true
		}
	}
}

// stationary is the steady-state goal. The reduced iterate x stands
// for π = [1, x]/(1 + Σx), x in reverse state order, and the measure
// is max|πQ|.
type stationary struct {
	q        *CSR
	residual []float64 // πQ
	pi       []float64 // the answer check returns
}

// estimate is max|πQ| of the iterate [1, x] implied by the reduced
// residual r: (πQ)_j = −r_j for j ≥ 1 and (πQ)_0 = Σ r_j, since the
// rows of Q sum to zero; normalising π divides both by 1 + Σ x. An
// iterate whose mass is not positive is as far from stationary as can
// be.
func (*stationary) estimate(sumX, sumR, maxR float64) float64 {
	if !(1+sumX > 0) {
		return math.MaxFloat64
	}
	return max(maxR, math.Abs(sumR)) / (1 + sumX)
}

// check builds the normalised π, with round-off negatives clamped to
// zero, and returns it with its max|πQ|.
func (g *stationary) check(x []float64) ([]float64, float64) {
	n := g.q.Rows
	pi := g.pi
	pi[0] = 1
	for i := 1; i < n; i++ {
		pi[i] = max(x[n-1-i], 0)
	}
	numeric.Normalize(pi)
	g.q.VecMulInto(pi, g.residual)
	var res float64
	for _, v := range g.residual {
		res = max(res, math.Abs(v))
	}
	return pi, res
}

// bicgstab is SteadyState's Krylov stage: the kernel on the reduced
// system A x = b, A = reduced Qᵀ, b = −(row 0 of Q without its
// diagonal), stopped on max|πQ|.
func (s *Solver) bicgstab(q *CSR, opts Options) ([]float64, error) {
	const solver = "bicgstab"
	start := time.Now()
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
	k := &s.k
	if k.a == nil {
		p := s.pat
		k.rowPtr, k.colIdx, k.diag = p.rowPtr, p.colIdx, p.diag
		k.a = make([]float64, len(p.colIdx))
		extra := k.size(2 * n)
		s.goal.residual, s.goal.pi = extra[:n:n], extra[n:]
	}
	for e, src := range s.pat.src {
		k.a[e] = q.Val[src]
	}
	if i := k.factor(); i >= 0 {
		opts.finish(solver, start, 0, math.Inf(1), false, 0)
		return nil, fmt.Errorf("linalg: ILU(0) pivot %g at state %d (reducible chain?)", k.lu[k.diag[i]], n-1-i)
	}

	clear(k.b)
	for e := q.RowPtr[0]; e < q.RowPtr[1]; e++ {
		if j := q.ColIdx[e]; j > 0 {
			k.b[n-1-j] = -q.Val[e]
		}
	}
	if st := opts.Start; st != nil && st[0] > 0 && !math.IsInf(st[0], 0) {
		for i := 1; i < n; i++ {
			k.x[n-1-i] = st[i] / st[0]
		}
	} else {
		clear(k.x)
	}
	s.goal.q = q
	s.last ^= 1
	if s.out[s.last] == nil {
		s.out[s.last] = make([]float64, n)
	}
	return k.solve(&s.goal, opts, solver, n, start, s.out[s.last])
}

// linearEps is SolveBiCGSTAB's stopping rule on the normwise backward
// error: max|b − Ax| <= linearEps·(‖A‖∞·max|x| + max|b|).
const linearEps = 1e-13

// SolveBiCGSTAB solves A x = b, where −A is a nonsingular M-matrix
// (A's diagonal negative, its other entries non-negative, as in the
// first-passage systems of a generator), with the Krylov stage's
// ILU(0)-preconditioned BiCGSTAB. Each row of A must store its
// diagonal and list its columns in ascending order, as the generators
// ctmc assembles and the first-passage systems sliced from them do.
// The solve starts from x = 0 and stops when the true residual has
// max|b − Ax| <= 1e-13·(‖A‖∞·max|x| + max|b|), checked with one
// SpMV; that bound, unlike one on max|b| alone, stays above the
// round-off floor of Ax when ‖A‖∞·max|x| ≫ max|b|, as for long
// hitting times. It fails with an error wrapping ErrNotConverged when
// the residual stagnates or 1000 iterations run out, and with an
// error when BiCGSTAB breaks down or an ILU(0) pivot shows A
// singular.
func SolveBiCGSTAB(a *CSR, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: need square matrix, got %dx%d", a.Rows, a.Cols)
	}
	m := a.Rows
	if len(b) != m {
		return nil, fmt.Errorf("linalg: rhs length %d != %d", len(b), m)
	}
	start := time.Now()
	k := kernel{rowPtr: a.RowPtr, colIdx: make([]int32, len(a.ColIdx)), diag: make([]int, m), a: a.Val}
	g := linear{k: &k, ax: make([]float64, m)}
	for i := 0; i < m; i++ {
		k.diag[i] = -1
		var row float64
		for e := a.RowPtr[i]; e < a.RowPtr[i+1]; e++ {
			j := a.ColIdx[e]
			if e > a.RowPtr[i] && j <= a.ColIdx[e-1] {
				return nil, fmt.Errorf("linalg: row %d does not list its columns in ascending order", i)
			}
			k.colIdx[e] = int32(j)
			if j == i {
				k.diag[i] = e
			}
			row += math.Abs(a.Val[e])
		}
		if k.diag[i] < 0 {
			return nil, fmt.Errorf("linalg: zero diagonal at row %d", i)
		}
		g.normA = max(g.normA, row)
	}
	k.size(0)
	if i := k.factor(); i >= 0 {
		return nil, fmt.Errorf("linalg: ILU(0) pivot %g at row %d (singular system?)", k.lu[k.diag[i]], i)
	}
	g.bMax = maxAbs(b)
	if g.bMax == 0 { //vet:allow floatcmp: x = 0 solves a zero right-hand side exactly
		return make([]float64, m), nil
	}
	copy(k.b, b)
	return k.solve(g, Options{Eps: linearEps}.withDefaults(), "bicgstab", m, start, make([]float64, m))
}

// linear is SolveBiCGSTAB's goal: the iterate x itself, measured by
// its normwise backward error max|b − Ax| / (‖A‖∞·max|x| + max|b|).
type linear struct {
	k           *kernel
	ax          []float64
	normA, bMax float64 // ‖A‖∞ and max|b|
}

func (g linear) estimate(_, _, maxR float64) float64 {
	return maxR / (g.normA*maxAbs(g.k.x) + g.bMax)
}

func (g linear) check(x []float64) ([]float64, float64) {
	g.k.apply(x, g.ax, g.ax)
	var res float64
	for i, v := range g.ax {
		res = max(res, math.Abs(g.k.b[i]-v))
	}
	return x, res / (g.normA*maxAbs(x) + g.bMax)
}

func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = max(m, math.Abs(x))
	}
	return m
}
