package sweep

import (
	"testing"

	"pepatags/internal/core"
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
