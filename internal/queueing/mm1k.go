package queueing

import (
	"fmt"
	"math"

	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
	"pepatags/internal/numeric"
)

// MM1K holds the closed-form stationary measures of an M/M/1/K queue
// (K = buffer capacity including the job in service).
type MM1K struct {
	Lambda, Mu float64
	K          int
}

// NewMM1K validates parameters.
func NewMM1K(lambda, mu float64, k int) MM1K {
	if lambda <= 0 || mu <= 0 || k < 1 {
		panic(fmt.Sprintf("queueing: invalid M/M/1/K parameters lambda=%g mu=%g K=%d", lambda, mu, k))
	}
	return MM1K{Lambda: lambda, Mu: mu, K: k}
}

// Pi returns the stationary distribution over 0..K.
func (q MM1K) Pi() []float64 {
	rho := q.Lambda / q.Mu
	pi := make([]float64, q.K+1)
	for i := range pi {
		pi[i] = math.Pow(rho, float64(i))
	}
	numeric.Normalize(pi)
	return pi
}

// LossProbability returns the blocking probability pi_K.
func (q MM1K) LossProbability() float64 {
	rho := q.Lambda / q.Mu
	if math.Abs(rho-1) < 1e-12 {
		return 1 / float64(q.K+1)
	}
	return (1 - rho) * math.Pow(rho, float64(q.K)) / (1 - math.Pow(rho, float64(q.K+1)))
}

// MeanQueueLength returns E[N] including the job in service.
func (q MM1K) MeanQueueLength() float64 {
	pi := q.Pi()
	var l float64
	for i, p := range pi {
		l += float64(i) * p
	}
	return l
}

// Throughput returns the rate of completed jobs lambda (1 - P_loss).
func (q MM1K) Throughput() float64 {
	return q.Lambda * (1 - q.LossProbability())
}

// LossRate returns lambda * P_loss.
func (q MM1K) LossRate() float64 { return q.Lambda * q.LossProbability() }

// ResponseTime returns the mean response time of accepted jobs by
// Little's law: E[N] / throughput. No program path calls it: the
// simulator and core tests compare against this closed form.
func (q MM1K) ResponseTime() float64 {
	return q.MeanQueueLength() / q.Throughput()
}

// Utilization returns P(server busy) = 1 - pi_0. No program path
// calls it: the simulator tests compare against this closed form.
func (q MM1K) Utilization() float64 {
	return 1 - q.Pi()[0]
}

// Little applies Little's law W = L / X, guarding against a zero
// completion rate.
func Little(meanJobs, throughput float64) float64 {
	if throughput <= 0 {
		return math.Inf(1)
	}
	return meanJobs / throughput
}

// MPH1K is a single-server queue with Poisson arrivals, phase-type
// service PH(alpha, T) and capacity K (including the job in service).
type MPH1K struct {
	Lambda  float64
	Service *dist.PhaseType
	K       int
}

// MPH1KMeasures are the stationary measures of the queue.
type MPH1KMeasures struct {
	States          int
	MeanQueueLength float64
	Throughput      float64
	LossRate        float64
	LossProbability float64
	ResponseTime    float64
	Utilization     float64
}

// Build constructs the CTMC: state 0 is the empty queue; other states
// are (level 1..K, service phase).
func (q MPH1K) Build() *ctmc.Chain {
	if q.Lambda <= 0 || q.K < 1 || q.Service == nil {
		panic("queueing: invalid M/PH/1/K parameters")
	}
	m := q.Service.Order()
	alpha := q.Service.Alpha
	exit := q.Service.Exit()
	b := ctmc.NewBuilder()
	label := func(lvl, ph int) string {
		if lvl == 0 {
			return "empty"
		}
		return fmt.Sprintf("L%d.P%d", lvl, ph)
	}
	// Intern all states first.
	b.State(label(0, 0))
	for lvl := 1; lvl <= q.K; lvl++ {
		for ph := 0; ph < m; ph++ {
			b.State(label(lvl, ph))
		}
	}
	idx := func(lvl, ph int) int {
		if lvl == 0 {
			return 0
		}
		return 1 + (lvl-1)*m + ph
	}
	// Arrivals into the empty queue start a service phase by alpha.
	for ph := 0; ph < m; ph++ {
		if alpha[ph] > 0 {
			b.Transition(idx(0, 0), idx(1, ph), q.Lambda*alpha[ph], "arrival")
		}
	}
	// If alpha has deficient mass (point mass at zero), those arrivals
	// complete instantly; with a CTMC we cannot represent that, so we
	// require a full alpha.
	var amass float64
	for _, a := range alpha {
		amass += a
	}
	if math.Abs(amass-1) > 1e-9 {
		panic("queueing: M/PH/1/K requires a service distribution without mass at zero")
	}
	for lvl := 1; lvl <= q.K; lvl++ {
		for ph := 0; ph < m; ph++ {
			from := idx(lvl, ph)
			// Arrival.
			if lvl < q.K {
				b.Transition(from, idx(lvl+1, ph), q.Lambda, "arrival")
			} else {
				b.Transition(from, from, q.Lambda, "loss")
			}
			// Phase changes.
			for ph2 := 0; ph2 < m; ph2++ {
				if ph2 != ph {
					if r := q.Service.T.At(ph, ph2); r > 0 {
						b.Transition(from, idx(lvl, ph2), r, "phase")
					}
				}
			}
			// Completion.
			if exit[ph] > 0 {
				if lvl == 1 {
					b.Transition(from, idx(0, 0), exit[ph], "service")
				} else {
					for ph2 := 0; ph2 < m; ph2++ {
						if alpha[ph2] > 0 {
							b.Transition(from, idx(lvl-1, ph2), exit[ph]*alpha[ph2], "service")
						}
					}
				}
			}
		}
	}
	return b.Build()
}

// Analyze solves the queue and returns its measures.
func (q MPH1K) Analyze() (MPH1KMeasures, error) {
	c := q.Build()
	pi, err := c.SteadyState()
	if err != nil {
		return MPH1KMeasures{}, err
	}
	m := q.Service.Order()
	level := func(s int) int {
		if s == 0 {
			return 0
		}
		return (s-1)/m + 1
	}
	l := c.Expectation(pi, func(s int) float64 { return float64(level(s)) })
	x := c.ActionThroughput(pi, "service")
	loss := c.ActionThroughput(pi, "loss")
	return MPH1KMeasures{
		States:          c.NumStates(),
		MeanQueueLength: l,
		Throughput:      x,
		LossRate:        loss,
		LossProbability: loss / q.Lambda,
		ResponseTime:    Little(l, x),
		Utilization:     c.Probability(pi, func(s int) bool { return s != 0 }),
	}, nil
}
