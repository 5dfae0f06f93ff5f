package sweep

import (
	"testing"

	"pepatags/internal/core"
	"pepatags/internal/linalg"
	"pepatags/internal/obsv"
)

// The Figure-8 search grid: one model shape (n=6, K=10), many timeout
// values. This is the workload the skeleton cache targets — every
// point after the first reuses the derived state space and the sparse
// generator pattern.
func figure8Grid() []core.TAGExp {
	var out []core.TAGExp
	for t := 30; t <= 65; t++ {
		out = append(out, core.TAGExp{Lambda: 5, Mu: 10, T: float64(t), N: 6, K1: 10, K2: 10})
	}
	return out
}

func BenchmarkFigure8GridUncached(b *testing.B) {
	grid := figure8Grid()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range grid {
			if _, err := m.Analyze(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigure8GridCached(b *testing.B) {
	grid := figure8Grid()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cache := NewCache()
		for _, m := range grid {
			if _, err := cache.Analyze(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The construction-only split: what each grid point pays to get a
// ctmc.Chain, with and without the cache (no steady-state solve).
func BenchmarkFigure8ChainUncached(b *testing.B) {
	grid := figure8Grid()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range grid {
			_ = m.Build()
		}
	}
}

func BenchmarkFigure8ChainCached(b *testing.B) {
	grid := figure8Grid()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cache := NewCache()
		for _, m := range grid {
			if _, err := cache.Chain(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkOptTSearch is one Figure-8 opt-t point (lambda=11, t in
// [12, 60], minimum mean queue length) through Run with a fresh cache:
// one derivation, then 49 searched solves and the re-evaluation of the
// optimum, each warm-started from the previous solve.
func BenchmarkOptTSearch(b *testing.B) {
	spec := &Spec{Schema: SpecSchema, Name: "opt-t", Points: []Point{{
		Series: "tag", X: 11, Model: "opt-t", Metric: "min-queue",
		Lambda: 11, N: 6, K1: 10, K2: 10, TLo: 12, THi: 60,
		Service: ServiceSpec{Kind: "exp", Mu: 10},
	}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(spec, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if got := res.Rows[0].Measures["t_opt"]; got != 42 {
			b.Fatalf("t_opt = %g, want 42", got)
		}
	}
}

// BenchmarkKrylovSolve is the Krylov kernel on the Figure-8 shape (4,331
// states, lambda=11, t=42) as a cache hit runs it: a linalg.Solver on
// the shape's cached pattern, warm-started from the stationary vector
// of the neighbouring timeout t=41. Each op refactors ILU(0) and solves;
// iterations/op is the BiCGSTAB steps per solve, so ns/op divided by it
// bounds the cost of one iteration from above.
func BenchmarkKrylovSolve(b *testing.B) {
	m := core.TAGExp{Lambda: 11, Mu: 10, T: 42, N: 6, K1: 10, K2: 10}
	prev := m
	prev.T = 41
	start, err := linalg.SteadyState(prev.Build().Generator(), linalg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	q := m.Build().Generator()
	pat, err := linalg.NewKrylovPattern(q)
	if err != nil {
		b.Fatal(err)
	}
	solver := linalg.NewSolver(pat)
	var st obsv.SolveStats
	iters := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.SteadyState(q, linalg.Options{Start: start, Stats: &st}); err != nil {
			b.Fatal(err)
		}
		iters += st.Iterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iterations/op")
}
