package exp

import (
	"pepatags/internal/numeric"
)

// Params are the common model parameters of Section 5: mu = 10
// (mean demand 0.1), n = 6 Erlang phases, K1 = K2 = 10.
type Params struct {
	Mu float64
	N  int
	K  int
	// Rates is the grid of *effective* timeout rates (t/n, the paper's
	// x-axis) swept in Figures 6 and 7.
	Rates []float64
	// RatesH2 is the (wider, lower) grid for Figures 9 and 10, where
	// the H2 optimum sits at much longer timeouts.
	RatesH2 []float64
	// TMin and TMax bound the integer phase-rate searches used where
	// the paper quotes "optimal t"; TStep sets the coarse step for the
	// expensive H2 searches of Figures 11 and 12.
	TMin, TMax, TStep int
	// Alphas is the Figures 11-12 x-axis.
	Alphas []float64
	// Workers parallelises the runners that go through the generic
	// PEPA engine (state-space derivation) and the sweep engine's
	// point pool; 0 or 1 keeps the serial reference paths. Set by
	// cmd/tagseval's -workers flag.
	Workers int
}

// DefaultParams mirrors the paper.
func DefaultParams() Params {
	return Params{
		Mu:      10,
		N:       6,
		K:       10,
		Rates:   numeric.Linspace(1, 15, 29),
		RatesH2: numeric.Linspace(0.5, 15, 30),
		TMin:    3,
		TMax:    90,
		TStep:   4,
		Alphas:  numeric.Linspace(0.89, 0.99, 11),
	}
}

// ShortParams is a trimmed grid for quick runs and benchmarks.
func ShortParams() Params {
	p := DefaultParams()
	p.Rates = numeric.Linspace(1, 15, 8)
	p.RatesH2 = numeric.Linspace(0.5, 15, 8)
	p.TMin, p.TMax, p.TStep = 6, 60, 9
	p.Alphas = []float64{0.89, 0.94, 0.99}
	return p
}

// effToT converts an effective timeout rate (the figure x-axis) to the
// Erlang phase rate t.
func (p Params) effToT(eff float64) float64 { return eff * float64(p.N) }

// The figure runners below execute declarative sweep specs (specs.go)
// through the sweep engine. The engine's skeleton cache, worker pool
// and journal are all transparent here: every runner's output is
// byte-identical to the direct per-point solve it replaced.

// Figure6 reproduces "Average queue length varied against timeout
// rate" (lambda = 5, mu = 10): TAG total and per-queue lengths vs the
// flat random and shortest-queue baselines.
func Figure6(p Params) (*Figure, error) { return runFigureSweep("figure6", p) }

// Figure7 reproduces "Average response time varied against timeout
// rate" for the same system.
func Figure7(p Params) (*Figure, error) { return runFigureSweep("figure7", p) }

// Figure8 reproduces "Average response time varied against arrival
// rate": TAG tuned to its optimal integer t per load versus the
// baselines, for lambda in {5, 7, 9, 11}.
func Figure8(p Params) (*Figure, error) { return runFigureSweep("figure8", p) }

// Figure9 reproduces "Average response time varied against timeout
// rate" under H2 service at lambda = 11: TAG vs shortest queue.
// Random allocation is off the scale (W > 1), as the paper notes.
func Figure9(p Params) (*Figure, error) { return runFigureSweep("figure9", p) }

// Figure10 reproduces "Throughput varied against timeout rate" for the
// same H2 system.
func Figure10(p Params) (*Figure, error) { return runFigureSweep("figure10", p) }

// Figure11 reproduces "Average response time varied against proportion
// of longer jobs" (lambda=11, mu1 = 10 mu2, TAG at optimal t).
func Figure11(p Params) (*Figure, error) { return runFigureSweep("figure11", p) }

// Figure12 reproduces "Throughput varied against proportion of longer
// jobs" for the same sweep.
func Figure12(p Params) (*Figure, error) { return runFigureSweep("figure12", p) }
