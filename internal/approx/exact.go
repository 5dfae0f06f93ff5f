package approx

import (
	"math"

	"pepatags/internal/core"
	"pepatags/internal/dist"
)

// Exact optimisers: sweep the full CTMC model rather than the
// decomposition. These reproduce the paper's "optimal (integer) values
// of t" (42, 45, 49, 51 for lambda = 11, 9, 7, 5 in Figure 8).

// scoreMeasures maps core measures onto a minimisation objective.
func (m Metric) scoreMeasures(r core.Measures) float64 {
	switch m {
	case MinQueueLength:
		return r.L
	case MinResponseTime:
		return r.W
	case MaxThroughput:
		return -r.Throughput
	default:
		panic("approx: unknown metric")
	}
}

// Evaluator solves a model at integer timer phase rate t and returns
// its measures. The search functions take the evaluator rather than
// model parameters so callers can route the (expensive) solves through
// the sweep engine's skeleton cache — see internal/sweep — without
// changing the search logic; the direct constructors below are the
// uncached defaults.
type Evaluator func(t int) (core.Measures, error)

// ExpEvaluator returns the direct (uncached) evaluator for the
// exponential TAG model with the remaining parameters fixed.
func ExpEvaluator(lambda, mu float64, n, k1, k2 int) Evaluator {
	return func(t int) (core.Measures, error) {
		return core.NewTAGExp(lambda, mu, float64(t), n, k1, k2).Analyze()
	}
}

// H2Evaluator returns the direct (uncached) evaluator for the H2 TAG
// model with the remaining parameters fixed. No program path calls
// it: OptimalIntegerTH2Coarse and the exhaustive H2 scan it is tested
// against evaluate through it.
func H2Evaluator(lambda float64, service dist.HyperExp, n, k1, k2 int) Evaluator {
	return func(t int) (core.Measures, error) {
		return core.NewTAGH2(lambda, service, float64(t), n, k1, k2).Analyze()
	}
}

// OptimalIntegerT finds the integer timer rate t in [lo, hi] minimising
// the metric under the given evaluator: the exhaustive scan, which is
// the coarse search at step 1.
func OptimalIntegerT(eval Evaluator, metric Metric, lo, hi int) (int, core.Measures, error) {
	return OptimalIntegerTCoarse(eval, metric, lo, hi, 1)
}

// OptimalIntegerTCoarse performs a coarse integer sweep with the given
// step followed by a +-(step-1) refinement, cutting the number of
// (expensive) solves roughly by the step factor. A step below 2 scans
// every integer. The first evaluator error of the coarse pass is
// returned once the pass is done; ties keep the t scored first. The
// search ends with one more eval(best), whose measures it returns.
func OptimalIntegerTCoarse(eval Evaluator, metric Metric, lo, hi, step int) (int, core.Measures, error) {
	if step < 1 {
		step = 1
	}
	score := func(t int) (float64, error) {
		r, err := eval(t)
		if err != nil {
			return 0, err
		}
		return metric.scoreMeasures(r), nil
	}
	best, bestScore := lo, math.Inf(1)
	var firstErr error
	for t := lo; t <= hi; t += step {
		s, err := score(t)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if s < bestScore {
			best, bestScore = t, s
		}
	}
	if firstErr != nil {
		return 0, core.Measures{}, firstErr
	}
	rl, rh := best-step+1, best+step-1
	if rl < lo {
		rl = lo
	}
	if rh > hi {
		rh = hi
	}
	for t := rl; t <= rh; t++ {
		if (t-lo)%step == 0 {
			continue // already scored in the coarse pass
		}
		s, err := score(t)
		if err != nil {
			return 0, core.Measures{}, err
		}
		if s < bestScore {
			best, bestScore = t, s
		}
	}
	r, err := eval(best)
	return best, r, err
}

// OptimalIntegerTExp finds the integer Erlang phase rate t in [lo, hi]
// optimising the metric for the exponential TAG model.
func OptimalIntegerTExp(lambda, mu float64, n, k1, k2 int, metric Metric, lo, hi int) (int, core.Measures, error) {
	return OptimalIntegerT(ExpEvaluator(lambda, mu, n, k1, k2), metric, lo, hi)
}

// OptimalIntegerTH2Coarse is the coarse H2 search with the direct
// evaluator. No program path calls it: it is the uncached reference
// the sweep engine's warm-started H2 opt-t search is checked against
// (internal/sweep's continuation tests).
func OptimalIntegerTH2Coarse(lambda float64, service dist.HyperExp, n, k1, k2 int, metric Metric, lo, hi, step int) (int, core.Measures, error) {
	return OptimalIntegerTCoarse(H2Evaluator(lambda, service, n, k1, k2), metric, lo, hi, step)
}
