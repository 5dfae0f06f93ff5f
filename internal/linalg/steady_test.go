package linalg

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"pepatags/internal/numeric"
	"pepatags/internal/obsv"
)

// mm1kGenerator builds the birth-death generator of an M/M/1/K queue.
func mm1kGenerator(lambda, mu float64, k int) *COO {
	n := k + 1
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		var out float64
		if i < k {
			c.Add(i, i+1, lambda)
			out += lambda
		}
		if i > 0 {
			c.Add(i, i-1, mu)
			out += mu
		}
		c.Add(i, i, -out)
	}
	return c
}

// mm1kExact returns the closed-form stationary distribution.
func mm1kExact(lambda, mu float64, k int) []float64 {
	rho := lambda / mu
	pi := make([]float64, k+1)
	for i := range pi {
		pi[i] = math.Pow(rho, float64(i))
	}
	numeric.Normalize(pi)
	return pi
}

func TestGTHAgainstMM1KClosedForm(t *testing.T) {
	for _, tc := range []struct {
		lambda, mu float64
		k          int
	}{
		{5, 10, 10}, {9, 10, 10}, {1, 10, 4}, {10, 10, 7}, {20, 10, 5},
	} {
		q := mm1kGenerator(tc.lambda, tc.mu, tc.k).ToCSR().ToDense()
		pi, err := SteadyStateGTH(q)
		if err != nil {
			t.Fatalf("GTH(%v): %v", tc, err)
		}
		want := mm1kExact(tc.lambda, tc.mu, tc.k)
		if d := numeric.MaxAbsDiff(pi, want); d > 1e-12 {
			t.Fatalf("GTH(%v): diff %g\n got %v\nwant %v", tc, d, pi, want)
		}
	}
}

func TestGTHTwoState(t *testing.T) {
	// Simple 2-state chain: rates a=2 (0->1), b=3 (1->0): pi = (b, a)/(a+b).
	q := DenseFromRows([][]float64{{-2, 2}, {3, -3}})
	pi, err := SteadyStateGTH(q)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(pi[0], 0.6, 1e-14) || !numeric.AlmostEqual(pi[1], 0.4, 1e-14) {
		t.Fatalf("pi=%v", pi)
	}
}

func TestGTHSingleState(t *testing.T) {
	q := DenseFromRows([][]float64{{0}})
	pi, err := SteadyStateGTH(q)
	if err != nil || pi[0] != 1 {
		t.Fatalf("pi=%v err=%v", pi, err)
	}
}

func TestGTHReducibleChainErrors(t *testing.T) {
	// State 1 absorbing relative to lower states but unreachable back.
	q := DenseFromRows([][]float64{{-1, 1}, {0, 0}})
	if _, err := SteadyStateGTH(q); err == nil {
		t.Fatal("expected error for reducible chain")
	}
}

// TestGTHNonFiniteRateErrors puts one NaN or +Inf rate on each
// off-diagonal entry of a 3-state generator in turn: GTH must fail
// rather than answer NaNs, and so must the cascade, with the GTH stage
// named in its fallbacks.
func TestGTHNonFiniteRateErrors(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		for i := range 3 {
			for j := range 3 {
				if i == j {
					continue
				}
				rows := [][]float64{{-3, 1, 2}, {4, -9, 5}, {6, 7, -13}}
				rows[i][j] = bad
				rows[i][i] = 0
				for c := range 3 {
					if c != i {
						rows[i][i] -= rows[i][c]
					}
				}
				q := DenseFromRows(rows)
				if pi, err := SteadyStateGTH(q); err == nil {
					t.Errorf("rate %g at (%d,%d): SteadyStateGTH answered %v", bad, i, j, pi)
				}
				coo := NewCOO(3, 3)
				for r := range 3 {
					for c := range 3 {
						coo.Add(r, c, rows[r][c])
					}
				}
				var st obsv.SolveStats
				pi, err := SteadyState(coo.ToCSR(), Options{MaxIter: 1000, Stats: &st})
				if err == nil {
					t.Errorf("rate %g at (%d,%d): SteadyState answered %v (%+v)", bad, i, j, pi, st)
					continue
				}
				if len(st.Fallbacks) == 0 || !strings.Contains(st.Fallbacks[0], "GTH") {
					t.Errorf("rate %g at (%d,%d): fallbacks %q do not start with the GTH stage", bad, i, j, st.Fallbacks)
				}
			}
		}
	}
}

// TestGTHPooledWorkConcurrent runs direct-stage solves of generators
// of several sizes, one past DenseCutoff, from several goroutines at
// once, so the pooled work space passes between sizes and goroutines:
// every π must match the serial answer bit for bit.
func TestGTHPooledWorkConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	var qs []*CSR
	var want [][]float64
	for _, n := range []int{7, 120, DenseCutoff, DenseCutoff + 30} {
		q := randomGenerator(rng, n, 2)
		pi, err := SteadyStateGTHSparse(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		qs, want = append(qs, q), append(want, pi)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 8 {
				c := (g + r) % len(qs)
				pi, err := SteadyStateGTHSparse(qs[c], Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(pi, want[c]) {
					t.Errorf("goroutine %d, solve %d: the %d-state π differs from the serial one", g, r, qs[c].Rows)
				}
			}
		}()
	}
	wg.Wait()
}

func TestSolversAgree(t *testing.T) {
	coo := mm1kGenerator(7, 10, 12)
	csr := coo.ToCSR()
	dense := csr.ToDense()
	want := mm1kExact(7, 10, 12)

	gth, err := SteadyStateGTH(dense)
	if err != nil {
		t.Fatalf("GTH: %v", err)
	}
	lu, err := SteadyStateLU(dense)
	if err != nil {
		t.Fatalf("LU: %v", err)
	}
	pow, err := SteadyStatePower(csr, Options{})
	if err != nil {
		t.Fatalf("power: %v", err)
	}
	gs, err := SteadyStateGaussSeidel(csr, Options{})
	if err != nil {
		t.Fatalf("GS: %v", err)
	}
	for name, pi := range map[string][]float64{
		"gth": gth, "lu": lu, "power": pow, "gs": gs,
	} {
		if d := numeric.MaxAbsDiff(pi, want); d > 1e-8 {
			t.Errorf("%s: diff from closed form %g", name, d)
		}
	}
}

func TestSteadyStateAutoAndResidual(t *testing.T) {
	csr := mm1kGenerator(5, 10, 10).ToCSR()
	pi, err := SteadyState(csr, Options{})
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	if r := Residual(csr, pi); r > 1e-9 {
		t.Fatalf("residual %g too large", r)
	}
	if !numeric.AlmostEqual(numeric.KahanSum(pi), 1, 1e-12) {
		t.Fatal("pi does not sum to 1")
	}
}

// TestSteadyStateOptionsReachIterativeStages checks the automatic
// cascade returns the same distribution with and without options,
// reports the solver that ran in the stats on both the GTH and the
// iterative stage, and rejects an empty generator.
func TestSteadyStateOptionsReachIterativeStages(t *testing.T) {
	for _, c := range []struct {
		k         int
		iterative bool
	}{{10, false}, {600, true}} {
		q := mm1kGenerator(5, 10, c.k).ToCSR()
		want, err := SteadyState(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var st obsv.SolveStats
		got, err := SteadyState(q, Options{Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		if d := numeric.MaxAbsDiff(got, want); d > 1e-12 {
			t.Fatalf("k=%d: options change the distribution by %g", c.k, d)
		}
		if d := numeric.MaxAbsDiff(got, mm1kExact(5, 10, c.k)); d > 1e-9 {
			t.Fatalf("k=%d: diff from closed form %g", c.k, d)
		}
		if !c.iterative && (st.Solver != "gth" || !st.Converged || st.Iterations != 0 || st.Elapsed <= 0) {
			t.Fatalf("GTH stage must report itself in the stats: %+v", st)
		}
		if c.iterative && (st.Solver != "bicgstab" || !st.Converged || st.Residual > DefaultEps) {
			t.Fatalf("iterative stage must fill stats: %+v", st)
		}
	}
	if _, err := SteadyState(NewCOO(0, 0).ToCSR(), Options{}); err == nil {
		t.Fatal("empty generator must error")
	}
}

// TestStartVector pins Options.Start: an explicit default start (the
// uniform distribution for the sweeping solvers, all mass on state 0
// for the cascade's Krylov stage) is the nil default bit for bit, a
// start is copied and never modified, a start at the answer converges
// in fewer sweeps, and a start of the wrong length is an error on
// every iterative solver and on the cascade, whichever stage would
// run.
func TestStartVector(t *testing.T) {
	q := mm1kGenerator(5, 10, 600).ToCSR()
	n := q.Rows
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = 1 / float64(n)
	}
	e0 := make([]float64, n)
	e0[0] = 1
	exact := mm1kExact(5, 10, 600)
	solvers := map[string]struct {
		solve func(*CSR, Options) ([]float64, error)
		start []float64 // the default start, spelled out
	}{
		"gauss-seidel": {SteadyStateGaussSeidel, uniform},
		"power":        {SteadyStatePower, uniform},
		"cascade":      {SteadyState, e0},
	}
	for name, s := range solvers {
		solve := s.solve
		var cold, warm obsv.SolveStats
		want, err := solve(q, Options{Stats: &cold})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := solve(q, Options{Start: s.start})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: explicit default start differs from nil at state %d", name, i)
			}
		}
		start := append([]float64(nil), exact...)
		pi, err := solve(q, Options{Start: start, Stats: &warm})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range start {
			if math.Float64bits(start[i]) != math.Float64bits(exact[i]) {
				t.Fatalf("%s: start vector modified at state %d", name, i)
			}
		}
		if d := numeric.MaxAbsDiff(pi, exact); d > 1e-9 {
			t.Fatalf("%s: warm solve off the closed form by %g", name, d)
		}
		if warm.Iterations >= cold.Iterations {
			t.Fatalf("%s: warm start took %d sweeps, cold %d", name, warm.Iterations, cold.Iterations)
		}
		if _, err := solve(q, Options{Start: exact[1:]}); err == nil {
			t.Fatalf("%s: short start vector accepted", name)
		}
	}
	small := mm1kGenerator(5, 10, 10).ToCSR()
	if _, err := SteadyState(small, Options{Start: []float64{1}}); err == nil {
		t.Fatal("cascade accepted a start vector of the wrong length on its GTH stage")
	}
	if _, err := SteadyState(small, Options{Start: mm1kExact(5, 10, 10)}); err != nil {
		t.Fatalf("GTH stage must ignore a well-formed start: %v", err)
	}
}

func TestSteadyStateLargerRandomWalk(t *testing.T) {
	// A 2000-state birth-death chain exercises the iterative path of
	// SteadyState (above the dense cutoff).
	const k = 1999
	csr := mm1kGenerator(3, 4, k).ToCSR()
	pi, err := SteadyState(csr, Options{})
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	want := mm1kExact(3, 4, k)
	if d := numeric.MaxAbsDiff(pi, want); d > 1e-7 {
		t.Fatalf("diff %g", d)
	}
}

func TestUniformizationConstant(t *testing.T) {
	csr := mm1kGenerator(5, 10, 3).ToCSR()
	lam := UniformizationConstant(csr)
	if lam < 15 { // max outflow is lambda+mu = 15
		t.Fatalf("Lambda %g < 15", lam)
	}
}

func TestStationarityProperty(t *testing.T) {
	// Property: for random birth-death chains the GTH solution has a
	// tiny residual and sums to one.
	rng := uint64(99)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return 0.1 + 10*float64(rng>>33)/float64(1<<31)
	}
	for trial := 0; trial < 40; trial++ {
		k := 2 + trial%10
		n := k + 1
		c := NewCOO(n, n)
		for i := 0; i < n; i++ {
			var out float64
			if i < k {
				r := next()
				c.Add(i, i+1, r)
				out += r
			}
			if i > 0 {
				r := next()
				c.Add(i, i-1, r)
				out += r
			}
			c.Add(i, i, -out)
		}
		csr := c.ToCSR()
		pi, err := SteadyStateGTH(csr.ToDense())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r := Residual(csr, pi); r > 1e-9 {
			t.Fatalf("trial %d: residual %g", trial, r)
		}
		if !numeric.AlmostEqual(numeric.KahanSum(pi), 1, 1e-12) {
			t.Fatalf("trial %d: sum != 1", trial)
		}
	}
}

// TestSolveBiCGSTABMatchesLU: on a strictly diagonally dominant
// sparse system with a negative diagonal (an H-matrix, for which ILU(0)
// exists with negative pivots) the linear solve agrees with LU.
func TestSolveBiCGSTABMatchesLU(t *testing.T) {
	rng := uint64(7)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>33)/float64(1<<31) - 0.5
	}
	n := 60
	coo := NewCOO(n, n)
	dense := NewDense(n, n)
	for i := 0; i < n; i++ {
		var rowAbs float64
		for j := 0; j < n; j++ {
			if i != j && next() > 0.3 {
				v := next()
				coo.Add(i, j, v)
				dense.Set(i, j, v)
				rowAbs += math.Abs(v)
			}
		}
		d := -(rowAbs + 1)
		coo.Add(i, i, d)
		dense.Set(i, i, d)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = next()
	}
	want, err := LUSolve(dense, b)
	if err != nil {
		t.Fatal(err)
	}
	a := coo.ToCSR()
	got, err := SolveBiCGSTAB(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := numeric.MaxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("diff %g", d)
	}
	// The stopping rule: max|b − Ax| <= 1e-13·(‖A‖∞·max|x| + max|b|).
	var normA float64
	for i := 0; i < n; i++ {
		var row float64
		a.RangeRow(i, func(_ int, v float64) { row += math.Abs(v) })
		normA = max(normA, row)
	}
	bound := 1e-13 * (normA*maxAbs(got) + maxAbs(b))
	ax := a.MulVec(got)
	for i := range b {
		if r := math.Abs(b[i] - ax[i]); r > bound {
			t.Fatalf("residual %g at row %d exceeds the bound %g", r, i, bound)
		}
	}
}

// TestSolveBiCGSTABValidation: malformed and singular systems are
// errors, and a zero right-hand side is solved by zero.
func TestSolveBiCGSTABValidation(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 1, 1) // zero diagonal at row 0
	coo.Add(1, 1, -1)
	if _, err := SolveBiCGSTAB(coo.ToCSR(), []float64{1, 1}); err == nil {
		t.Fatal("zero diagonal must fail")
	}
	coo2 := NewCOO(2, 2)
	coo2.Add(0, 0, -1)
	coo2.Add(1, 1, -1)
	if _, err := SolveBiCGSTAB(coo2.ToCSR(), []float64{1}); err == nil {
		t.Fatal("bad rhs length must fail")
	}
	if x, err := SolveBiCGSTAB(coo2.ToCSR(), []float64{0, 0}); err != nil || x[0] != 0 || x[1] != 0 {
		t.Fatalf("zero rhs: x = %v, %v", x, err)
	}
	unsorted := &CSR{Rows: 2, Cols: 2, RowPtr: []int{0, 2, 3}, ColIdx: []int{1, 0, 1}, Val: []float64{1, -2, -1}}
	if _, err := SolveBiCGSTAB(unsorted, []float64{1, 1}); err == nil {
		t.Fatal("columns out of order must fail")
	}
	singular := NewCOO(2, 2) // −A is a singular M-matrix: a zero pivot
	singular.Add(0, 0, -1)
	singular.Add(0, 1, 1)
	singular.Add(1, 0, 1)
	singular.Add(1, 1, -1)
	if _, err := SolveBiCGSTAB(singular.ToCSR(), []float64{1, 1}); err == nil || !strings.Contains(err.Error(), "ILU(0) pivot") {
		t.Fatalf("a singular system must fail, got %v", err)
	}
	positive := NewCOO(2, 2) // −A is not an M-matrix
	positive.Add(0, 0, 1)
	positive.Add(1, 1, 1)
	if _, err := SolveBiCGSTAB(positive.ToCSR(), []float64{1, 1}); err == nil || !strings.Contains(err.Error(), "ILU(0) pivot") {
		t.Fatalf("a positive pivot must fail, got %v", err)
	}
}

// TestSolveMetrics checks the per-solve registry aggregates.
func TestSolveMetrics(t *testing.T) {
	q := mm1kGenerator(5, 10, 20).ToCSR()
	reg := obsv.NewRegistry()
	var st obsv.SolveStats
	for _, solve := range []func() error{
		func() error { _, err := SteadyStateGaussSeidel(q, Options{Stats: &st, Metrics: reg}); return err },
		func() error { _, err := SteadyStatePower(q, Options{Metrics: reg}); return err },
		func() error { _, err := SteadyStateBiCGSTAB(q, Options{Metrics: reg}); return err },
	} {
		if err := solve(); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("solve.count").Value(); got != 3 {
		t.Fatalf("solve.count = %d, want 3", got)
	}
	if iters := reg.Counter("solve.iterations").Value(); iters < int64(st.Iterations) {
		t.Fatalf("solve.iterations = %d, below the Gauss-Seidel count %d", iters, st.Iterations)
	}
	if n := reg.Histogram("solve.seconds").Count(); n != 3 {
		t.Fatalf("solve.seconds count = %d, want 3", n)
	}
}

func TestNotConvergedWrapsResidualAndIterations(t *testing.T) {
	q := mm1kGenerator(9, 10, 100).ToCSR()
	for name, run := range map[string]func() error{
		"gauss-seidel": func() error { _, err := SteadyStateGaussSeidel(q, Options{MaxIter: 3}); return err },
		"power":        func() error { _, err := SteadyStatePower(q, Options{MaxIter: 3}); return err },
	} {
		err := run()
		if !errors.Is(err, ErrNotConverged) {
			t.Fatalf("%s: expected ErrNotConverged, got %v", name, err)
		}
		msg := err.Error()
		if !strings.Contains(msg, "3 iterations") || !strings.Contains(msg, "diff") {
			t.Fatalf("%s: error %q does not report achieved residual and iteration count", name, msg)
		}
	}
}

func TestSolveStatsAndTrace(t *testing.T) {
	q := mm1kGenerator(5, 10, 100).ToCSR()
	var st obsv.SolveStats
	var ticks int
	pi, err := SteadyStatePower(q, Options{
		Stats:    &st,
		Progress: func(obsv.Progress) { ticks++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pi) != q.Rows {
		t.Fatal("bad vector")
	}
	if st.Solver != "power" || !st.Converged || st.Iterations <= 0 || st.Elapsed <= 0 {
		t.Fatalf("implausible stats %+v", st)
	}
	if ticks == 0 {
		t.Fatal("progress callback never fired")
	}
	if s := st.String(); !strings.Contains(s, "power") {
		t.Fatalf("stats string %q", s)
	}
}
