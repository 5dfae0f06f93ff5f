package sweep

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pepatags/internal/approx"
	"pepatags/internal/core"
	"pepatags/internal/dist"
	"pepatags/internal/linalg"
	"pepatags/internal/obsv"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// solve is solveInto with the stationary distribution returned in a
// fresh vector.
func (e *cacheEntry) solve(v core.RateValues, opts linalg.Options) ([]float64, core.Measures, error) {
	pi := make([]float64, e.skel.NumStates())
	meas, err := e.solveInto(v, opts, pi)
	if err != nil {
		return nil, core.Measures{}, err
	}
	return pi, meas, nil
}

// TestContinuationAccuracy runs the Figure-8 opt-t search shape (n=6,
// K=10, t = 12..60 in order) warm-started from the predicted start and
// checks it against cold solves: L, W and throughput agree to 1e-8
// relative, every warm solution is stationary to a residual of 1e-12,
// and the warm start saves solver iterations. The warm loop below
// repeats what the opt-t evaluator does, and must reproduce its
// measures bit for bit.
func TestContinuationAccuracy(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("196 serial solves of a 4,331-state chain; skipped with -short and under the race detector")
	}
	rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(b), 1e-300) }
	for _, lambda := range []float64{5, 11} {
		model := func(t int) core.TAGExp {
			return core.TAGExp{Lambda: lambda, Mu: 10, T: float64(t), N: 6, K1: 10, K2: 10}
		}
		cache := NewCache()
		eval := continuation(cache, func(t int) core.SkeletonModel { return model(t) })
		var pred predictor
		var coldIters, warmIters int
		var worstRel, worstRes float64
		for tt := 12; tt <= 60; tt++ {
			m := model(tt)
			got, err := eval(tt)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := cache.Chain(m)
			if err != nil {
				t.Fatal(err)
			}
			q := ch.Generator()
			var warmSt, coldSt obsv.SolveStats
			warm, err := linalg.SteadyState(q, linalg.Options{Start: pred.start(tt), Stats: &warmSt})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := linalg.SteadyState(q, linalg.Options{Stats: &coldSt})
			if err != nil {
				t.Fatal(err)
			}
			pred.add(tt, warm)
			warmIters += warmSt.Iterations
			coldIters += coldSt.Iterations

			if w := m.MeasuresFrom(ch, warm); w != got {
				t.Fatalf("lambda=%g t=%d: evaluator %+v differs from the warm solve %+v", lambda, tt, got, w)
			}
			c := m.MeasuresFrom(ch, cold)
			for _, pair := range [][2]float64{{got.L, c.L}, {got.W, c.W}, {got.Throughput, c.Throughput}} {
				worstRel = math.Max(worstRel, rel(pair[0], pair[1]))
			}
			worstRes = math.Max(worstRes, linalg.Residual(q, warm))
		}
		t.Logf("lambda=%g: solver iterations %d cold -> %d warm; worst relative difference %.2g, worst warm residual %.2g",
			lambda, coldIters, warmIters, worstRel, worstRes)
		if worstRel > 1e-8 {
			t.Errorf("lambda=%g: warm and cold measures differ by %g relative", lambda, worstRel)
		}
		if worstRes > 1e-12 {
			t.Errorf("lambda=%g: warm residual %g", lambda, worstRes)
		}
		if warmIters >= coldIters {
			t.Errorf("lambda=%g: warm start took %d iterations, cold %d", lambda, warmIters, coldIters)
		}
	}
}

// TestContinuationAcrossShapeChange runs an opt-t search whose shape
// changes along the timeout axis: with branch 1 a billion times slower
// than branch 2, the residual short-job probability rounds to exactly 1
// at small timeouts and removes edges. The warm start must restart on
// the new state space, and the search must agree with the cold direct
// one.
func TestContinuationAcrossShapeChange(t *testing.T) {
	svc := ServiceSpec{Kind: "h2", Mean: 0.1, Alpha: 0.9, Ratio: 1e-9}
	spec := &Spec{Schema: SpecSchema, Name: "shape-change", Points: []Point{{
		Series: "tag", Model: "opt-t", Metric: "min-queue",
		Lambda: 3, N: 2, K1: 3, K2: 3, TLo: 1, THi: 2000, TStep: 100, Service: svc,
	}}}
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheMisses != 2 {
		t.Fatalf("%d cache misses, want one per shape (2)", res.CacheMisses)
	}
	tOpt, want, err := approx.OptimalIntegerTH2Coarse(3, svc.h2(), 2, 3, 3, approx.MinQueueLength, 1, 2000, 100)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Rows[0].Measures
	if int(got["t_opt"]) != tOpt || math.Abs(got["L"]-want.L) > 1e-12*want.L {
		t.Fatalf("warm search t*=%g L=%g, cold t*=%d L=%g", got["t_opt"], got["L"], tOpt, want.L)
	}
}

// TestKrylovStageResidualBound checks the residual bound of the Krylov
// stage on the chains the figures solve: the Figure-8 grid (n=6, K=10,
// lambda = 5, 7, 9, 11, t = 12..60) solved as the opt-t evaluator
// solves it, and the 9,801-state Figure-9 H2 chain (lambda = 11, alpha
// = 0.99, mu1 = 100 mu2) cold at effective timeout rates 0.5, 3, 8 and
// 15. Every solve must come from the Krylov stage with max|πQ| <=
// 1e-12; one that fell back instead must say so in its stats.
func TestKrylovStageResidualBound(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("about 200 serial solves of 4,331- and 9,801-state chains; skipped with -short and under the race detector")
	}
	check := func(what string, q *linalg.CSR, pi []float64, st obsv.SolveStats) {
		t.Helper()
		if st.Solver != "bicgstab" {
			if len(st.Fallbacks) == 0 || !strings.Contains(st.Fallbacks[0], "bicgstab") {
				t.Errorf("%s: solved by %s without a recorded fallback: %+v", what, st.Solver, st)
			}
			t.Errorf("%s: the Krylov stage fell back: %v", what, st.Fallbacks)
			return
		}
		if r := linalg.Residual(q, pi); r > 1e-12 || r != st.Residual {
			t.Errorf("%s: residual %g (stats %g)", what, r, st.Residual)
		}
	}
	for _, lambda := range []float64{5, 7, 9, 11} {
		cache := NewCache()
		var pred predictor
		for tt := 12; tt <= 60; tt++ {
			m := core.TAGExp{Lambda: lambda, Mu: 10, T: float64(tt), N: 6, K1: 10, K2: 10}
			ch, err := cache.Chain(m)
			if err != nil {
				t.Fatal(err)
			}
			var st obsv.SolveStats
			pi, _, err := cache.entry(m).solve(m.RateValues(), linalg.Options{Start: pred.start(tt), Stats: &st})
			if err != nil {
				t.Fatal(err)
			}
			pred.add(tt, pi)
			check(fmt.Sprintf("figure 8, lambda=%g t=%d", lambda, tt), ch.Generator(), pi, st)
		}
	}
	for _, eff := range []float64{0.5, 3, 8, 15} {
		q := core.TAGH2{Lambda: 11, Service: dist.H2ForTAG(0.1, 0.99, 100), T: 6 * eff, N: 6, K1: 10, K2: 10}.Build().Generator()
		var st obsv.SolveStats
		pi, err := linalg.SteadyState(q, linalg.Options{Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		if q.Rows != 9801 {
			t.Fatalf("H2 chain has %d states, want 9801", q.Rows)
		}
		check(fmt.Sprintf("figure 9, t/n=%g", eff), q, pi, st)
	}
}
