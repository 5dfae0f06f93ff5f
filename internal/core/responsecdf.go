package core

import (
	"fmt"

	"pepatags/internal/dist"
	"pepatags/internal/numeric"
)

// Analytic response-time distributions for the exponential baselines.
// With FIFO service and memoryless demands, an admitted job that joins
// a queue at position p (p-1 jobs ahead plus itself) completes after
// an Erlang(p, mu) time — the in-progress job's remainder is again
// exponential. By PASTA the position distribution is the stationary
// queue-length distribution conditioned on admission, so the response
// CDF is a mixture of Erlangs. This gives the baselines' percentiles
// to set against the TAG tagged-job chain.

// responseMixture accumulates P(position = p | admitted) weights.
type responseMixture struct {
	mu      float64
	weights map[int]float64 // position -> probability
}

// normalise conditions the position weights on admission, whose
// probability is admitted.
func (r *responseMixture) normalise(admitted float64) {
	for p := range r.weights {
		r.weights[p] /= admitted
	}
}

func (r *responseMixture) cdf(x float64) float64 {
	var acc numeric.Accumulator
	for p, w := range r.weights {
		acc.Add(w * dist.NewErlang(p, r.mu).CDF(x))
	}
	return acc.Sum()
}

func (r *responseMixture) mean() float64 {
	var acc numeric.Accumulator
	for p, w := range r.weights {
		acc.Add(w * float64(p) / r.mu)
	}
	return acc.Sum()
}

// percentile inverts the mixture CDF by bisection.
func (r *responseMixture) percentile(q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("core: percentile needs 0 < q < 1")
	}
	hi := r.mean()
	if hi <= 0 {
		return 0, fmt.Errorf("core: degenerate mixture")
	}
	for i := 0; i < 60 && r.cdf(hi) < q; i++ {
		hi *= 2
	}
	lo := 0.0
	for i := 0; i < 80 && hi-lo > 1e-12*(1+hi); i++ {
		mid := (lo + hi) / 2
		if r.cdf(mid) < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// ResponseDistribution is an analytic conditional response-time
// distribution of admitted jobs.
type ResponseDistribution struct {
	mix *responseMixture
}

// CDF evaluates P(response <= x | admitted). No program path calls it
// (the tagged table reads Percentile): the variants pin and the
// response-distribution tests read the CDF through it.
func (r *ResponseDistribution) CDF(x float64) float64 { return r.mix.cdf(x) }

// Mean is E[response | admitted].
func (r *ResponseDistribution) Mean() float64 { return r.mix.mean() }

// Percentile inverts the CDF.
func (r *ResponseDistribution) Percentile(q float64) (float64, error) {
	return r.mix.percentile(q)
}

// ResponseDistribution returns the admitted-job response distribution
// of the shortest-queue system with exponential service (an Erlang
// mixture over the arrival position).
func (m ShortestQueue) ResponseDistribution() (*ResponseDistribution, error) {
	return m.product().response(m.Service)
}

// ResponseDistribution returns the admitted-job response distribution
// of the round-robin allocator with exponential service: by PASTA the
// tagged arrival joins the designated queue at position q+1, giving
// an Erlang position mixture. No program path calls it: it models the
// response distribution of the introduction's round-robin baseline,
// pinned by the variants pin.
func (m RoundRobinAlloc) ResponseDistribution() (*ResponseDistribution, error) {
	return m.product().response(m.Service)
}

// response returns the admitted-job response distribution of a
// baseline product with exponential service: each state weighs the
// positions its arrival joins by the stationary probability, halved
// for each side of a shortest-queue tie.
func (p tagProduct) response(service dist.Distribution) (*ResponseDistribution, error) {
	e, ok := service.(dist.Exponential)
	if !ok {
		return nil, fmt.Errorf("core: analytic response distribution needs exponential service")
	}
	pi, states, err := p.solved()
	if err != nil {
		return nil, err
	}
	mix := &responseMixture{mu: e.Mu, weights: map[int]float64{}}
	var admitted float64
	for i, s := range states {
		lost := true
		p.dispatch(s, func(j int, half bool) {
			w := pi[i]
			if half {
				w /= 2
			}
			mix.weights[s.nodes[j].q+1] += w
			lost = false
		})
		if !lost {
			admitted += pi[i]
		}
	}
	mix.normalise(admitted)
	return &ResponseDistribution{mix: mix}, nil
}

// ResponseDistribution returns the admitted-job response distribution
// of one node of the homogeneous random allocator with exponential
// service (M/M/1/K tagged-job mixture). No program path calls it: it
// models the response distribution of the paper's random-allocation
// baseline, pinned by the variants pin.
func (m RandomAlloc) ResponseDistribution() (*ResponseDistribution, error) {
	e, ok := m.Service.(dist.Exponential)
	if !ok {
		return nil, fmt.Errorf("core: analytic response distribution needs exponential service")
	}
	m.validate()
	if len(m.Weights) != 2 || m.Weights[0] != m.Weights[1] { //vet:allow floatcmp: weights are set, not computed; homogeneity is exact
		return nil, fmt.Errorf("core: response distribution implemented for the homogeneous two-node split")
	}
	lambda := m.Lambda * m.Weights[0]
	rho := lambda / e.Mu
	pi := make([]float64, m.K+1)
	p := 1.0
	for i := range pi {
		pi[i] = p
		p *= rho
	}
	numeric.Normalize(pi)
	mix := &responseMixture{mu: e.Mu, weights: map[int]float64{}}
	var admitted float64
	for i := 0; i < m.K; i++ { // arrivals at a full node are lost
		mix.weights[i+1] += pi[i]
		admitted += pi[i]
	}
	mix.normalise(admitted)
	return &ResponseDistribution{mix: mix}, nil
}
