package linalg

import (
	"math"
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
	sor, err := SteadyStateGaussSeidel(csr, Options{Omega: 1.2})
	if err != nil {
		t.Fatalf("SOR: %v", err)
	}
	for name, pi := range map[string][]float64{
		"gth": gth, "lu": lu, "power": pow, "gs": gs, "sor": sor,
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
		if !c.iterative && (st.Solver != "gth" || !st.Converged || st.Workers != 1 || st.Iterations != 0 || st.Elapsed <= 0) {
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
		"jacobi":       {SteadyStateJacobi, uniform},
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

func TestSolveSparseGaussSeidelMatchesLU(t *testing.T) {
	// Diagonally dominant random sparse system.
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
		d := rowAbs + 1
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
	got, err := SolveSparseGaussSeidel(coo.ToCSR(), b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := numeric.MaxAbsDiff(got, want); d > 1e-8 {
		t.Fatalf("diff %g", d)
	}
}

func TestSolveSparseGaussSeidelValidation(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 1, 1) // zero diagonal at row 0
	coo.Add(1, 1, 1)
	if _, err := SolveSparseGaussSeidel(coo.ToCSR(), []float64{1, 1}, Options{}); err == nil {
		t.Fatal("zero diagonal must fail")
	}
	coo2 := NewCOO(2, 2)
	coo2.Add(0, 0, 1)
	coo2.Add(1, 1, 1)
	if _, err := SolveSparseGaussSeidel(coo2.ToCSR(), []float64{1}, Options{}); err == nil {
		t.Fatal("bad rhs length must fail")
	}
}

// TestResidualTraceEndsAtFinalDiff pins the fix for traces that
// stopped one sample short: whatever TraceEvery is, the last trace
// entry must be the final (converged) difference.
func TestResidualTraceEndsAtFinalDiff(t *testing.T) {
	q := mm1kGenerator(5, 10, 20).ToCSR()
	for _, every := range []int{1, 3, 7, 1000000} {
		var st obsv.SolveStats
		if _, err := SteadyStateGaussSeidel(q, Options{Stats: &st, TraceEvery: every}); err != nil {
			t.Fatalf("TraceEvery=%d: %v", every, err)
		}
		if len(st.ResidualTrace) == 0 {
			t.Fatalf("TraceEvery=%d: empty trace", every)
		}
		last := st.ResidualTrace[len(st.ResidualTrace)-1]
		if last != st.FinalDiff {
			t.Fatalf("TraceEvery=%d: trace ends at %g, final diff %g (iterations %d)",
				every, last, st.FinalDiff, st.Iterations)
		}
		if last >= DefaultEps {
			t.Fatalf("TraceEvery=%d: trace does not end converged: %g", every, last)
		}
		// No duplicate tail when the iteration count lands on a sample.
		if st.Iterations%every == 0 && len(st.ResidualTrace) >= 2 &&
			st.ResidualTrace[len(st.ResidualTrace)-2] == last {
			t.Fatalf("TraceEvery=%d: final diff appended twice", every)
		}
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
		func() error { _, err := SteadyStateJacobi(q, Options{Metrics: reg, Workers: 2}); return err },
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
