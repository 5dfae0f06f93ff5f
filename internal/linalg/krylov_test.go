package linalg

import (
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"pepatags/internal/numeric"
	"pepatags/internal/obsv"
)

// randomGenerator builds an irreducible generator on n states: a cycle
// through every state plus extra random edges, with rates spread over
// two decades around 1.
func randomGenerator(rng *rand.Rand, n, extra int) *CSR {
	coo := NewCOO(n, n)
	out := make([]float64, n)
	add := func(i, j int) {
		r := math.Pow(10, 2*rng.Float64()-1)
		coo.Add(i, j, r)
		out[i] += r
	}
	for i := 0; i < n; i++ {
		add(i, (i+1)%n)
		for e := 0; e < extra; e++ {
			if j := rng.IntN(n); j != i {
				add(i, j)
			}
		}
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, -out[i])
	}
	return coo.ToCSR()
}

// TestBiCGSTABBirthDeathExact: the reduced transposed generator of a
// birth-death chain is tridiagonal, so its ILU(0) factor is the exact
// LU and the stage converges at once.
func TestBiCGSTABBirthDeathExact(t *testing.T) {
	for _, c := range []struct {
		k          int
		lambda, mu float64
	}{{600, 5, 10}, {1999, 3, 4}, {500, 9, 10}} {
		q := birthDeath(c.k, c.lambda, c.mu)
		var st obsv.SolveStats
		pi, err := SteadyStateBiCGSTAB(q, Options{Stats: &st})
		if err != nil {
			t.Fatalf("k=%d: %v", c.k, err)
		}
		if st.Solver != "bicgstab" || !st.Converged || st.Iterations > 2 {
			t.Fatalf("k=%d: want convergence in <= 2 iterations, got %+v", c.k, st)
		}
		if st.Residual > DefaultEps || st.Residual != Residual(q, pi) {
			t.Fatalf("k=%d: stats residual %g, recomputed %g", c.k, st.Residual, Residual(q, pi))
		}
		if d := numeric.MaxAbsDiff(pi, mm1kExact(c.lambda, c.mu, c.k)); d > 1e-12 {
			t.Fatalf("k=%d: off the closed form by %g", c.k, d)
		}
	}
}

// TestBiCGSTABMatchesGTH: on random irreducible generators the stage
// meets its residual bound and agrees with GTH to a small multiple of
// it: within 1e-11 at the default max|πQ| <= 1e-12, and within 1e-12
// when asked for 1e-13.
func TestBiCGSTABMatchesGTH(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.IntN(300)
		q := randomGenerator(rng, n, rng.IntN(4))
		want, err := SteadyStateGTH(q.ToDense())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ eps, tol float64 }{{0, 1e-11}, {1e-13, 1e-12}} {
			var st obsv.SolveStats
			pi, err := SteadyStateBiCGSTAB(q, Options{Eps: c.eps, Stats: &st})
			if err != nil {
				t.Fatalf("trial %d (n=%d, eps %g): %v", trial, n, c.eps, err)
			}
			if d := numeric.MaxAbsDiff(pi, want); d > c.tol {
				t.Fatalf("trial %d (n=%d, eps %g): differs from GTH by %g", trial, n, c.eps, d)
			}
			bound := c.eps
			if bound == 0 {
				bound = DefaultEps
			}
			if r := Residual(q, pi); r > bound || st.Residual != r {
				t.Fatalf("trial %d (n=%d, eps %g): residual %g, stats %g", trial, n, c.eps, r, st.Residual)
			}
			if !numeric.AlmostEqual(numeric.KahanSum(pi), 1, 1e-12) {
				t.Fatalf("trial %d: pi does not sum to 1", trial)
			}
		}
	}
}

// TestBiCGSTABStart: the stage starts from Options.Start scaled to
// π_0 = 1, never modifies it, stops at once on the answer and rejects
// a start of the wrong length.
func TestBiCGSTABStart(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	q := randomGenerator(rng, 1500, 3)
	var cold, warm obsv.SolveStats
	want, err := SteadyStateBiCGSTAB(q, Options{Stats: &cold})
	if err != nil {
		t.Fatal(err)
	}
	// Scaling the start does not matter: only ratios to π_0 enter.
	scaled := make([]float64, len(want))
	for i, v := range want {
		scaled[i] = 7 * v
	}
	keep := append([]float64(nil), scaled...)
	pi, err := SteadyStateBiCGSTAB(q, Options{Start: scaled, Stats: &warm})
	if err != nil {
		t.Fatal(err)
	}
	for i := range scaled {
		if math.Float64bits(scaled[i]) != math.Float64bits(keep[i]) {
			t.Fatalf("start vector modified at state %d", i)
		}
	}
	if warm.Iterations != 0 || cold.Iterations == 0 {
		t.Fatalf("start at the answer took %d iterations (cold %d)", warm.Iterations, cold.Iterations)
	}
	if d := numeric.MaxAbsDiff(pi, want); d > 1e-12 {
		t.Fatalf("warm solve off the cold one by %g", d)
	}
	// The default start is all mass on state 0.
	e0 := make([]float64, len(want))
	e0[0] = 1
	got, err := SteadyStateBiCGSTAB(q, Options{Start: e0})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("explicit start e_0 differs from nil at state %d", i)
		}
	}
	if _, err := SteadyStateBiCGSTAB(q, Options{Start: want[1:]}); err == nil {
		t.Fatal("short start vector accepted")
	}
}

// TestBiCGSTABReducibleErrors: a reducible chain is an error, and no
// vector comes back.
func TestBiCGSTABReducibleErrors(t *testing.T) {
	split := NewCOO(4, 4) // {0,1} and {2,3} never meet
	for _, e := range [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}} {
		split.Add(e[0], e[1], 2)
		split.Add(e[0], e[0], -2)
	}
	absorbing := NewCOO(3, 3) // state 2 has no way out
	absorbing.Add(0, 1, 1)
	absorbing.Add(0, 0, -1)
	absorbing.Add(1, 2, 1)
	absorbing.Add(1, 0, 1)
	absorbing.Add(1, 1, -2)
	for name, coo := range map[string]*COO{"split": split, "absorbing": absorbing} {
		pi, err := SteadyStateBiCGSTAB(coo.ToCSR(), Options{})
		if err == nil || pi != nil {
			t.Fatalf("%s: want an error and no vector, got %v, %v", name, pi, err)
		}
	}
}

// TestSolverCachedStructureBitIdentical: solves through a Solver built
// on a shared KrylovPattern, reusing its work vectors across a run of
// generators with one pattern and different values, cold and warm,
// return exactly SteadyState's π.
func TestSolverCachedStructureBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	base := randomGenerator(rng, 900, 2)
	pat, err := NewKrylovPattern(base)
	if err != nil {
		t.Fatal(err)
	}
	solver := NewSolver(pat)
	var prev []float64
	for round := 0; round < 6; round++ {
		// Same pattern, new values: scale each row by its own factor.
		q := &CSR{Rows: base.Rows, Cols: base.Cols, RowPtr: base.RowPtr, ColIdx: base.ColIdx, Val: make([]float64, base.NNZ())}
		if round%2 == 1 { // an equal pattern in other arrays
			q.RowPtr = append([]int(nil), base.RowPtr...)
			q.ColIdx = append([]int(nil), base.ColIdx...)
		}
		for i := 0; i < q.Rows; i++ {
			f := 0.5 + rng.Float64()
			for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
				q.Val[k] = f * base.Val[k]
			}
		}
		var st obsv.SolveStats
		got, err := solver.SteadyState(q, Options{Start: prev, Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		if st.Solver != "bicgstab" {
			t.Fatalf("round %d: solved by %s, not the Krylov stage", round, st.Solver)
		}
		want, err := SteadyState(q, Options{Start: prev})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: cached solve differs from SteadyState at state %d", round, i)
			}
		}
		prev = got
	}
	if _, err := solver.SteadyState(birthDeath(899, 1, 2), Options{}); err == nil {
		t.Fatal("a generator with another pattern was accepted")
	}
}

// TestSteadyStateFallbackRecorded forces stages of the cascade to fail
// and checks that it says so: in Stats.Fallbacks, naming each failed
// stage and the reason, and in warn-level "solve.fallback" events.
func TestSteadyStateFallbackRecorded(t *testing.T) {
	// State 0 is transient and {1, 2} is closed, so π = (0, 2/3, 1/3).
	// GTH finds state 1 without a way down; pinning π_0 = 1 leaves the
	// Krylov stage a singular system (a zero ILU(0) pivot); Gauss–Seidel
	// converges to the closed class's distribution.
	coo := NewCOO(3, 3)
	for _, e := range []struct {
		from, to int
		rate     float64
	}{{0, 1, 1}, {1, 2, 1}, {2, 1, 2}} {
		coo.Add(e.from, e.to, e.rate)
		coo.Add(e.from, e.from, -e.rate)
	}
	log := obsv.NewEventLog(obsv.EventLogConfig{RecorderSize: 64})
	var st obsv.SolveStats
	pi, err := SteadyState(coo.ToCSR(), Options{Stats: &st, Events: log})
	if err != nil {
		t.Fatal(err)
	}
	if d := numeric.MaxAbsDiff(pi, []float64{0, 2.0 / 3, 1.0 / 3}); d > 1e-12 {
		t.Fatalf("pi = %v", pi)
	}
	if st.Solver != "gauss-seidel" || !st.Converged || len(st.Fallbacks) != 2 ||
		!strings.Contains(st.Fallbacks[0], "GTH") || !strings.Contains(st.Fallbacks[1], "ILU(0) pivot") {
		t.Fatalf("stats do not record the fallbacks: %+v", st)
	}
	if !strings.Contains(st.String(), "after fallback: ") {
		t.Fatalf("stats line hides the fallback: %s", st.String())
	}
	var warns []obsv.Event
	for _, ev := range log.Recorder() {
		if ev.Kind == "solve.fallback" {
			warns = append(warns, ev)
		}
	}
	if len(warns) != 2 || warns[0].Level != "warn" || warns[1].Msg != st.Fallbacks[1] {
		t.Fatalf("solve.fallback events: %+v", warns)
	}

	// With a budget nothing meets, every stage fails in turn: the error
	// is the last stage's, and the stats name the two stages before it
	// (and nothing left over from an earlier solve).
	st = obsv.SolveStats{Fallbacks: []string{"stale"}}
	_, err = SteadyState(randomGenerator(rand.New(rand.NewPCG(4, 4)), 600, 2), Options{MaxIter: 3, Stats: &st})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("want ErrNotConverged from the power stage, got %v", err)
	}
	if st.Solver != "power" || len(st.Fallbacks) != 2 ||
		!strings.HasPrefix(st.Fallbacks[0], "linalg: bicgstab") || !strings.HasPrefix(st.Fallbacks[1], "linalg: gauss-seidel") {
		t.Fatalf("fallback chain: %+v", st)
	}
}
