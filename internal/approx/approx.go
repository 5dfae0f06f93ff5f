package approx

import (
	"fmt"
	"math"

	"pepatags/internal/dist"
	"pepatags/internal/numeric"
	"pepatags/internal/queueing"
)

// ExponentialBalanceTimeout solves the paper's first balance equation
//
//	mu^2 = T^2 + T mu
//
// for the timeout rate T that equalises the expected useful work at
// node 1 and the expected residual work at node 2 when the timeout is
// a single exponential. The closed form is T = mu (sqrt(5)-1)/2; for
// mu = 10 this gives ~6.18 (the paper quotes "approximately 6.17").
func ExponentialBalanceTimeout(mu float64) float64 {
	if mu <= 0 {
		panic("approx: mu must be positive")
	}
	return mu * (math.Sqrt(5) - 1) / 2
}

// usefulWorkNode1 is the expected service received by a job at node 1
// that completes there: E[S 1{S < TO}] for S ~ Exp(mu) racing
// TO ~ Erlang(n, t). Conditioning on the phase during which the service
// completes gives sum_i (t/(t+mu))^{i-1} (mu/(t+mu)) * i/(t+mu).
func usefulWorkNode1(mu float64, n int, t float64) float64 {
	p := t / (t + mu)
	var acc numeric.Accumulator
	head := mu / ((t + mu) * (t + mu))
	pw := 1.0
	for i := 1; i <= n; i++ {
		acc.Add(pw * head * float64(i))
		pw *= p
	}
	return acc.Sum()
}

// residualWorkNode2 is the expected residual demand of a job that
// times out: P(TO < S) * 1/mu = (t/(t+mu))^n / mu by memorylessness.
func residualWorkNode2(mu float64, n int, t float64) float64 {
	return math.Pow(t/(t+mu), float64(n)) / mu
}

// ErlangRaceBalanceRate solves the paper's second balance equation —
// the Erlang(n, t) timeout racing an exponential service —
//
//	(t/(t+mu))^n / mu = (mu / (t (t+mu))) sum_{i=1..n} i (t/(t+mu))^i
//
// for the phase rate t. The effective timeout rate t/n increases with
// n towards the deterministic-timeout limit (~8.7 for mu = 10, the
// paper's "around 9").
func ErlangRaceBalanceRate(mu float64, n int) (float64, error) {
	if mu <= 0 || n < 1 {
		return 0, fmt.Errorf("approx: invalid parameters mu=%g n=%d", mu, n)
	}
	f := func(t float64) float64 {
		return residualWorkNode2(mu, n, t) - usefulWorkNode1(mu, n, t)
	}
	// The root is bracketed by a vanishing timeout-survival probability
	// on the left and certain timeout on the right.
	lo, hi := 1e-9*mu, 1e6*mu*float64(n)
	return numeric.Brent(f, lo, hi, 1e-10)
}

// DeterministicBalanceRate solves the n -> infinity limit: a
// deterministic timeout tau balancing e^{-mu tau}/mu against
// (1 - e^{-mu tau}(1 + mu tau))/mu, i.e. e^{-x}(2+x) = 1 with
// x = mu tau. Returns the timeout *rate* 1/tau.
func DeterministicBalanceRate(mu float64) float64 {
	x, err := numeric.Brent(func(x float64) float64 {
		return math.Exp(-x)*(2+x) - 1
	}, 1e-9, 50, 1e-13)
	if err != nil {
		panic(err) // fixed well-behaved equation
	}
	return mu / x
}

// TwoStage is the bounded-queue decomposition of Section 4: node 1 is
// approximated as M/M/1/K1 with the accelerated rate induced by the
// timeout race, node 2 as M/M/1/K2 fed by the timed-out flow with the
// repeat+residual service time.
type TwoStage struct {
	Lambda, Mu float64
	T          float64 // Erlang phase rate
	N          int     // Erlang phases
	K1, K2     int
}

// Result holds the approximate stationary measures.
type Result struct {
	PTimeout  float64 // probability a served job times out
	L1, L2, L float64
	X1, X2, X float64 // completion rates
	Loss      float64
	W         float64
}

// Evaluate computes the approximation.
func (a TwoStage) Evaluate() Result {
	if a.Lambda <= 0 || a.Mu <= 0 || a.T <= 0 || a.N < 1 || a.K1 < 1 || a.K2 < 1 {
		panic(fmt.Sprintf("approx: invalid TwoStage %+v", a))
	}
	pTO := math.Pow(a.T/(a.T+a.Mu), float64(a.N))
	// Mean occupancy of the node-1 server per job (service or timeout).
	occ := dist.ExpectedMin(a.Mu, a.N, a.T)
	mu1 := 1 / occ
	q1 := queueing.NewMM1K(a.Lambda, mu1, a.K1)
	accepted := a.Lambda * (1 - q1.LossProbability())
	lambda2 := accepted * pTO
	// Node 2 serves repeat + residual.
	mu2 := 1 / (float64(a.N)/a.T + 1/a.Mu)
	res := Result{PTimeout: pTO, L1: q1.MeanQueueLength()}
	res.X1 = accepted * (1 - pTO)
	res.Loss = a.Lambda - accepted
	if lambda2 > 0 {
		q2 := queueing.NewMM1K(lambda2, mu2, a.K2)
		res.L2 = q2.MeanQueueLength()
		res.X2 = q2.Throughput()
		res.Loss += q2.LossRate()
	}
	res.L = res.L1 + res.L2
	res.X = res.X1 + res.X2
	res.W = queueing.Little(res.L, res.X)
	return res
}

// TwoStageH2 extends the decomposition to H2 service demands: the
// timeout probability and occupancy are computed per branch, and the
// node-2 residual mean uses the re-weighted mix alpha'. No program
// path calls it: it models the paper's Section 4 approximation for
// the H2 demand of Section 3.2, behind the Figure 9 discussion of
// longer optimal timeouts under high-variance demand.
type TwoStageH2 struct {
	Lambda  float64
	Service dist.HyperExp
	T       float64
	N       int
	K1, K2  int
}

// Evaluate computes the approximation.
func (a TwoStageH2) Evaluate() Result {
	if a.Lambda <= 0 || a.T <= 0 || a.N < 1 || a.K1 < 1 || a.K2 < 1 {
		panic(fmt.Sprintf("approx: invalid TwoStageH2 %+v", a))
	}
	pTO := dist.SurvivalProbability(a.Service, a.N, a.T)
	occ := dist.ExpectedMinH2(a.Service, a.N, a.T)
	mu1 := 1 / occ
	q1 := queueing.NewMM1K(a.Lambda, mu1, a.K1)
	accepted := a.Lambda * (1 - q1.LossProbability())
	lambda2 := accepted * pTO
	resid := dist.ResidualHyperExpAfter(a.Service, dist.NewErlang(a.N, a.T))
	mu2 := 1 / (float64(a.N)/a.T + resid.Mean())
	res := Result{PTimeout: pTO, L1: q1.MeanQueueLength()}
	res.X1 = accepted * (1 - pTO)
	res.Loss = a.Lambda - accepted
	if lambda2 > 0 {
		q2 := queueing.NewMM1K(lambda2, mu2, a.K2)
		res.L2 = q2.MeanQueueLength()
		res.X2 = q2.Throughput()
		res.Loss += q2.LossRate()
	}
	res.L = res.L1 + res.L2
	res.X = res.X1 + res.X2
	res.W = queueing.Little(res.L, res.X)
	return res
}

// Metric selects the optimisation target.
type Metric int

const (
	// MinQueueLength minimises L (the paper's Figure 8 optimisation).
	MinQueueLength Metric = iota
	// MinResponseTime minimises W.
	MinResponseTime
	// MaxThroughput maximises X (Figure 10).
	MaxThroughput
)

func (m Metric) String() string {
	switch m {
	case MinQueueLength:
		return "min-queue-length"
	case MinResponseTime:
		return "min-response-time"
	case MaxThroughput:
		return "max-throughput"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// score maps a Result to a minimisation objective.
func (m Metric) score(r Result) float64 {
	switch m {
	case MinQueueLength:
		return r.L
	case MinResponseTime:
		return r.W
	case MaxThroughput:
		return -r.X
	default:
		panic("approx: unknown metric")
	}
}

// OptimalRate searches phase rates in [lo, hi] for the one optimising
// the chosen metric under the TwoStage approximation, returning the
// rate and its Result.
func (a TwoStage) OptimalRate(metric Metric, lo, hi float64) (float64, Result) {
	obj := func(t float64) float64 {
		b := a
		b.T = t
		return metric.score(b.Evaluate())
	}
	t := numeric.GridMin(obj, lo, hi, 200, 1e-6)
	b := a
	b.T = t
	return t, b.Evaluate()
}

// OptimalRate is the H2 analogue.
func (a TwoStageH2) OptimalRate(metric Metric, lo, hi float64) (float64, Result) {
	obj := func(t float64) float64 {
		b := a
		b.T = t
		return metric.score(b.Evaluate())
	}
	t := numeric.GridMin(obj, lo, hi, 200, 1e-6)
	b := a
	b.T = t
	return t, b.Evaluate()
}
