package dist

import "math"

// ResidualH2AfterErlang computes the distribution of the remaining
// service demand of an H2(alpha, mu1, mu2) job that has survived an
// Erlang(n, t) timeout (Section 3.2 of the paper).
//
// By memorylessness of each exponential branch, the residual is again
// H2 with the same rates but a re-weighted branch probability
//
//	alpha' = alpha L(mu1) / (alpha L(mu1) + (1-alpha) L(mu2))
//
// where L(mu) = E[e^{-mu * TO}] = (t/(t+mu))^n is the Laplace transform
// of the Erlang timeout evaluated at the branch rate — the probability
// that a rate-mu service survives the timeout. Long jobs survive more
// often, so alpha' < alpha when mu1 > mu2.
func ResidualH2AfterErlang(h HyperExp, n int, t float64) HyperExp {
	if len(h.Alpha) != 2 {
		panic("dist: ResidualH2AfterErlang requires a two-branch H2")
	}
	to := NewErlang(n, t)
	w1 := h.Alpha[0] * to.LaplaceTransform(h.Mu[0])
	w2 := h.Alpha[1] * to.LaplaceTransform(h.Mu[1])
	ap := w1 / (w1 + w2)
	return NewH2(ap, h.Mu[0], h.Mu[1])
}

// ResidualHyperExpAfter computes the residual branch mix of a general
// hyper-exponential after surviving an arbitrary independent timeout
// distribution, using the timeout's Laplace transform at each branch
// rate. No program path calls it: it models Section 3.2's residual-
// life argument for any timeout distribution, and the tests check
// ResidualH2AfterErlang against it.
func ResidualHyperExpAfter(h HyperExp, timeout Distribution) HyperExp {
	ws := make([]float64, len(h.Alpha))
	var sum float64
	for i := range h.Alpha {
		ws[i] = h.Alpha[i] * timeout.LaplaceTransform(h.Mu[i])
		sum += ws[i]
	}
	for i := range ws {
		ws[i] /= sum
	}
	return NewHyperExp(ws, h.Mu)
}

// SurvivalProbability returns P(service > timeout) for an H2 service
// racing an Erlang(n, t) timeout: the probability the head-of-line
// job times out at node 1. No program path calls it: TwoStageH2
// models Section 4's H2 approximation with it.
func SurvivalProbability(h HyperExp, n int, t float64) float64 {
	to := NewErlang(n, t)
	var p float64
	for i := range h.Alpha {
		p += h.Alpha[i] * to.LaplaceTransform(h.Mu[i])
	}
	return p
}

// ExpectedMin returns E[min(S, TO)] for an exponential service S with
// rate mu racing an Erlang(n, t) timeout TO: the expected occupancy of
// node 1 per job, used by the Section 4 approximations.
//
// E[min(S,TO)] = (1 - E[e^{-mu TO}]) / mu = (1 - (t/(t+mu))^n) / mu.
func ExpectedMin(mu float64, n int, t float64) float64 {
	return (1 - math.Pow(t/(t+mu), float64(n))) / mu
}

// ExpectedMinH2 returns E[min(S, TO)] for an H2 service racing an
// Erlang(n, t) timeout, by conditioning on the branch. No program
// path calls it: TwoStageH2 models Section 4's H2 approximation with
// it.
func ExpectedMinH2(h HyperExp, n int, t float64) float64 {
	var m float64
	for i := range h.Alpha {
		m += h.Alpha[i] * ExpectedMin(h.Mu[i], n, t)
	}
	return m
}
