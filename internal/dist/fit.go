package dist

import (
	"errors"
	"fmt"
	"math"
)

// FitH2TwoMoments fits an H2 distribution to a mean m1 > 0 and squared
// coefficient of variation scv >= 1 using the standard balanced-means
// heuristic (each branch contributes half the mean):
//
//	alpha = (1 + sqrt((scv-1)/(scv+1))) / 2
//	mu1   = 2 alpha / m1
//	mu2   = 2 (1-alpha) / m1
//
// scv = 1 degenerates to the exponential (alpha = 1/2, mu1 = mu2). No
// program path calls it: it stands in for the phase-type fitting the
// paper leaves to the EMpht tool.
func FitH2TwoMoments(m1, scv float64) (HyperExp, error) {
	if m1 <= 0 {
		return HyperExp{}, errors.New("dist: mean must be positive")
	}
	if scv < 1 {
		return HyperExp{}, fmt.Errorf("dist: H2 requires scv >= 1, got %g (use Erlang for scv < 1)", scv)
	}
	alpha := (1 + math.Sqrt((scv-1)/(scv+1))) / 2
	mu1 := 2 * alpha / m1
	mu2 := 2 * (1 - alpha) / m1
	return NewH2(alpha, mu1, mu2), nil
}

// FitErlang fits an Erlang distribution to a mean and scv <= 1 by
// rounding 1/scv to the nearest integer phase count. No program path
// calls it: it models the same moment fitting for low-variance
// durations.
func FitErlang(m1, scv float64) (Erlang, error) {
	if m1 <= 0 {
		return Erlang{}, errors.New("dist: mean must be positive")
	}
	if scv <= 0 || scv > 1 {
		return Erlang{}, fmt.Errorf("dist: Erlang requires 0 < scv <= 1, got %g", scv)
	}
	k := int(math.Round(1 / scv))
	if k < 1 {
		k = 1
	}
	return NewErlang(k, float64(k)/m1), nil
}

// FitH2EM refines an H2 fit to observed samples by
// expectation-maximisation on the two-branch mixture of exponentials.
// init provides the starting parameters (e.g. from FitH2TwoMoments);
// iters EM rounds are performed. Returns the refined distribution and
// the final per-sample average log-likelihood. No program path calls
// it: it stands in for the EM fitting of the EMpht tool the paper
// cites for fitting observed durations.
func FitH2EM(samples []float64, init HyperExp, iters int) (HyperExp, float64, error) {
	if len(init.Alpha) != 2 {
		return HyperExp{}, 0, errors.New("dist: FitH2EM needs a two-branch initialiser")
	}
	if len(samples) == 0 {
		return HyperExp{}, 0, errors.New("dist: FitH2EM needs samples")
	}
	for _, x := range samples {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return HyperExp{}, 0, fmt.Errorf("dist: invalid sample %g", x)
		}
	}
	alpha, mu1, mu2 := init.Alpha[0], init.Mu[0], init.Mu[1]
	n := float64(len(samples))
	var ll float64
	for it := 0; it < iters; it++ {
		var sumR, sumRX, sumNX float64 // responsibilities and weighted sums
		ll = 0
		for _, x := range samples {
			p1 := alpha * mu1 * math.Exp(-mu1*x)
			p2 := (1 - alpha) * mu2 * math.Exp(-mu2*x)
			tot := p1 + p2
			if tot <= 0 {
				// Both densities underflowed; assign to the slower branch.
				p1, p2, tot = 0, 1, 1
			}
			r := p1 / tot
			sumR += r
			sumRX += r * x
			sumNX += (1 - r) * x
			ll += math.Log(tot)
		}
		alpha = sumR / n
		if sumRX > 0 {
			mu1 = sumR / sumRX
		}
		if sumNX > 0 {
			mu2 = (n - sumR) / sumNX
		}
		// Guard against degenerate collapse.
		if alpha < 1e-9 {
			alpha = 1e-9
		}
		if alpha > 1-1e-9 {
			alpha = 1 - 1e-9
		}
	}
	return NewH2(alpha, mu1, mu2), ll / n, nil
}
