package sweep

import (
	"math"
	"reflect"
	"testing"

	"pepatags/internal/core"
	"pepatags/internal/ctmc"
	"pepatags/internal/linalg"
)

// requireSameMeasures asserts that every field of two Measures has the
// same bits.
func requireSameMeasures(t *testing.T, what string, got, want core.Measures) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := range g.NumField() {
		name := g.Type().Field(i).Name
		switch f := g.Field(i); f.Kind() {
		case reflect.Float64:
			if math.Float64bits(f.Float()) != math.Float64bits(w.Field(i).Float()) {
				t.Fatalf("%s: %s = %v, chain gives %v", what, name, f.Float(), w.Field(i).Float())
			}
		case reflect.Int:
			if f.Int() != w.Field(i).Int() {
				t.Fatalf("%s: %s = %d, chain gives %d", what, name, f.Int(), w.Field(i).Int())
			}
		default:
			t.Fatalf("%s: Measures field %s of kind %s is not compared", what, name, f.Kind())
		}
	}
}

// TestChainFreeSolveMatchesChain checks the chain-free path of a cache
// entry against the chain Build derives, bit for bit, along timeout
// grids: the generator values Fill writes into reused buffers against
// Build().Generator(), and the measures read from the skeleton against
// MeasuresFrom on the built chain at the same π. It also checks that a
// cold solve through the entry returns the π linalg.SteadyState
// returns on the built generator. The grids cover calibrated (the
// Figure-8 shape among them, solved in the Krylov stage) and
// LiteralFigure3 TAGExp, H2 service, and an H2 service whose residual
// short-job probability rounds to exactly 1 at small timeouts, so the
// shape changes in the middle of the grid.
func TestChainFreeSolveMatchesChain(t *testing.T) {
	type model interface {
		core.SkeletonModel
		Build() *ctmc.Chain
		MeasuresFrom(*ctmc.Chain, []float64) core.Measures
	}
	flip := ServiceSpec{Kind: "h2", Mean: 0.1, Alpha: 0.9, Ratio: 1e-9}.h2()
	h2 := ServiceSpec{Kind: "h2", Mean: 0.1, Alpha: 0.95, Ratio: 10}.h2()
	cases := []struct {
		name   string
		ts     []int
		model  func(t int) model
		shapes int
	}{
		{"tagexp", grid(1, 40, 3), func(t int) model {
			return core.TAGExp{Lambda: 7, Mu: 10, T: float64(t), N: 3, K1: 4, K2: 5}
		}, 1},
		{"tagexp-figure8", []int{12, 30, 51}, func(t int) model {
			return core.TAGExp{Lambda: 11, Mu: 10, T: float64(t), N: 6, K1: 10, K2: 10}
		}, 1},
		{"tagexp-literal", grid(1, 40, 3), func(t int) model {
			return core.TAGExp{Lambda: 7, Mu: 10, T: float64(t), N: 3, K1: 4, K2: 5, LiteralFigure3: true}
		}, 1},
		{"tagh2", grid(1, 40, 3), func(t int) model {
			return core.TAGH2{Lambda: 5, Service: h2, T: float64(t), N: 3, K1: 4, K2: 4}
		}, 1},
		{"tagh2-shape-change", grid(1, 2000, 100), func(t int) model {
			return core.TAGH2{Lambda: 3, Service: flip, T: float64(t), N: 2, K1: 3, K2: 3}
		}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cache := NewCache()
			shapes := map[core.Shape]bool{}
			var b *solveBuffers
			var last core.Shape
			for _, tt := range c.ts {
				m := c.model(tt)
				e := cache.entry(m)
				if s := m.Shape(); b == nil || s != last {
					b = &solveBuffers{rate: make([]float64, len(e.skel.Edges)), out: make([]float64, e.skel.NumStates()),
						q: e.pat.CSR(make([]float64, e.pat.NNZ()))}
					last = s
				}
				shapes[last] = true
				if err := e.skel.Rates(m.RateValues(), b.rate); err != nil {
					t.Fatal(err)
				}
				e.pat.Fill(b.rate, b.out, b.q.Val)

				ch := m.Build()
				q := ch.Generator()
				if !reflect.DeepEqual(b.q.RowPtr, q.RowPtr) || !reflect.DeepEqual(b.q.ColIdx, q.ColIdx) {
					t.Fatalf("t=%d: generator pattern differs from Build's", tt)
				}
				for k, v := range q.Val {
					if math.Float64bits(b.q.Val[k]) != math.Float64bits(v) {
						t.Fatalf("t=%d: generator value %d is %v, Build gives %v", tt, k, b.q.Val[k], v)
					}
				}
				pi, err := linalg.SteadyState(q, linalg.Options{})
				if err != nil {
					t.Fatal(err)
				}
				requireSameMeasures(t, c.name, e.skel.Measures(pi, b.rate), m.MeasuresFrom(ch, pi))

				got, meas, err := e.solve(m.RateValues(), linalg.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for i := range pi {
					if math.Float64bits(got[i]) != math.Float64bits(pi[i]) {
						t.Fatalf("t=%d: cached solve π[%d] = %v, cold solve %v", tt, i, got[i], pi[i])
					}
				}
				requireSameMeasures(t, c.name, meas, m.MeasuresFrom(ch, pi))
			}
			if len(shapes) != c.shapes || int(cache.Misses()) != c.shapes || cache.Shapes() != c.shapes {
				t.Fatalf("grid crossed %d shapes with %d cache misses and %d entries, want %d",
					len(shapes), cache.Misses(), cache.Shapes(), c.shapes)
			}
			for s := range shapes {
				if !cache.Contains(s.Key()) {
					t.Fatalf("cache lacks shape %+v", s)
				}
			}
		})
	}
}

// grid returns lo, lo+step, ... up to hi.
func grid(lo, hi, step int) []int {
	var out []int
	for t := lo; t <= hi; t += step {
		out = append(out, t)
	}
	return out
}
