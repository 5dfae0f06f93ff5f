package sweep

import (
	"math"
	"testing"

	"pepatags/internal/approx"
	"pepatags/internal/core"
	"pepatags/internal/linalg"
	"pepatags/internal/obsv"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestContinuationAccuracy runs the Figure-8 opt-t search shape (n=6,
// K=10, t = 12..60 in order) warm-started from each neighbour and
// checks it against cold solves: L, W and throughput agree to 1e-8
// relative, every warm solution is stationary to a residual of 1e-10,
// and the warm start saves Gauss–Seidel sweeps. The warm loop below
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
		eval := continuation(cache, func(t int) warmModel { return model(t) })
		var prev []float64
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
			warm, err := linalg.SteadyState(q, linalg.Options{Start: prev, Stats: &warmSt})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := linalg.SteadyState(q, linalg.Options{Stats: &coldSt})
			if err != nil {
				t.Fatal(err)
			}
			prev = warm
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
		t.Logf("lambda=%g: Gauss-Seidel sweeps %d cold -> %d warm; worst relative difference %.2g, worst warm residual %.2g",
			lambda, coldIters, warmIters, worstRel, worstRes)
		if worstRel > 1e-8 {
			t.Errorf("lambda=%g: warm and cold measures differ by %g relative", lambda, worstRel)
		}
		if worstRes > 1e-10 {
			t.Errorf("lambda=%g: warm residual %g", lambda, worstRes)
		}
		if warmIters >= coldIters {
			t.Errorf("lambda=%g: warm start took %d sweeps, cold %d", lambda, warmIters, coldIters)
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
