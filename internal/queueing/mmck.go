package queueing

import (
	"fmt"
	"math"

	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
	"pepatags/internal/numeric"
)

// MMcK is the M/M/c/K multi-server finite queue (K >= c): the
// central-queue alternative the paper's introduction mentions ("pull
// jobs from a central resource") evaluated as a baseline capacity
// benchmark for the two-node systems.
type MMcK struct {
	Lambda, Mu float64
	C, K       int
}

// NewMMcK validates the parameters.
func NewMMcK(lambda, mu float64, c, k int) MMcK {
	if lambda <= 0 || mu <= 0 || c < 1 || k < c {
		panic(fmt.Sprintf("queueing: invalid M/M/c/K lambda=%g mu=%g c=%d K=%d", lambda, mu, c, k))
	}
	return MMcK{Lambda: lambda, Mu: mu, C: c, K: k}
}

// Pi returns the stationary distribution over 0..K from the
// birth-death recurrence pi_{i+1} = pi_i lambda / (min(i+1, c) mu).
func (q MMcK) Pi() []float64 {
	pi := make([]float64, q.K+1)
	pi[0] = 1
	for i := 0; i < q.K; i++ {
		servers := i + 1
		if servers > q.C {
			servers = q.C
		}
		pi[i+1] = pi[i] * q.Lambda / (float64(servers) * q.Mu)
	}
	numeric.Normalize(pi)
	return pi
}

// LossProbability is pi_K.
func (q MMcK) LossProbability() float64 {
	pi := q.Pi()
	return pi[q.K]
}

// MeanQueueLength is E[N].
func (q MMcK) MeanQueueLength() float64 {
	var l float64
	for i, p := range q.Pi() {
		l += float64(i) * p
	}
	return l
}

// Throughput is lambda (1 - P_loss).
func (q MMcK) Throughput() float64 { return q.Lambda * (1 - q.LossProbability()) }

// ResponseTime is E[N]/X by Little's law. No program path calls it:
// the admission and simulator tests compare against this closed form.
func (q MMcK) ResponseTime() float64 { return Little(q.MeanQueueLength(), q.Throughput()) }

// Utilization is the mean busy-server fraction.
func (q MMcK) Utilization() float64 {
	var busy float64
	for i, p := range q.Pi() {
		s := i
		if s > q.C {
			s = q.C
		}
		busy += float64(s) * p
	}
	return busy / float64(q.C)
}

// MMPP2M1K is the MMPP(2)/M/1/K queue: Poisson arrivals modulated by a
// two-phase environment, exponential service, finite buffer. It is the
// analytic single-queue building block for the Section 7 burstiness
// study.
type MMPP2M1K struct {
	Rate1, Rate2     float64 // arrival rates per phase
	Switch1, Switch2 float64 // phase flip rates
	Mu               float64
	K                int
}

// MMPP2M1KMeasures holds the stationary measures.
type MMPP2M1KMeasures struct {
	States          int
	MeanQueueLength float64
	Throughput      float64
	LossRate        float64
	LossProbability float64
	ResponseTime    float64
	Utilization     float64
}

// Build constructs the (phase, level) CTMC.
func (q MMPP2M1K) Build() *ctmc.Chain {
	if q.Rate1 <= 0 || q.Rate2 < 0 || q.Switch1 <= 0 || q.Switch2 <= 0 || q.Mu <= 0 || q.K < 1 {
		panic(fmt.Sprintf("queueing: invalid MMPP2/M/1/K %+v", q))
	}
	b := ctmc.NewBuilder()
	label := func(ph, lvl int) string { return fmt.Sprintf("P%d.L%d", ph, lvl) }
	for ph := 0; ph < 2; ph++ {
		for lvl := 0; lvl <= q.K; lvl++ {
			b.State(label(ph, lvl))
		}
	}
	idx := func(ph, lvl int) int { return ph*(q.K+1) + lvl }
	rates := [2]float64{q.Rate1, q.Rate2}
	switches := [2]float64{q.Switch1, q.Switch2}
	for ph := 0; ph < 2; ph++ {
		for lvl := 0; lvl <= q.K; lvl++ {
			from := idx(ph, lvl)
			b.Transition(from, idx(1-ph, lvl), switches[ph], "switch")
			if r := rates[ph]; r > 0 {
				if lvl < q.K {
					b.Transition(from, idx(ph, lvl+1), r, "arrival")
				} else {
					b.Transition(from, from, r, "loss")
				}
			}
			if lvl > 0 {
				b.Transition(from, idx(ph, lvl-1), q.Mu, "service")
			}
		}
	}
	return b.Build()
}

// MeanRate returns the stationary offered rate.
func (q MMPP2M1K) MeanRate() float64 {
	p1 := q.Switch2 / (q.Switch1 + q.Switch2)
	return p1*q.Rate1 + (1-p1)*q.Rate2
}

// Analyze solves the queue.
func (q MMPP2M1K) Analyze() (MMPP2M1KMeasures, error) {
	c := q.Build()
	pi, err := c.SteadyState()
	if err != nil {
		return MMPP2M1KMeasures{}, err
	}
	level := func(s int) int { return s % (q.K + 1) }
	l := c.Expectation(pi, func(s int) float64 { return float64(level(s)) })
	x := c.ActionThroughput(pi, "service")
	loss := c.ActionThroughput(pi, "loss")
	return MMPP2M1KMeasures{
		States:          c.NumStates(),
		MeanQueueLength: l,
		Throughput:      x,
		LossRate:        loss,
		LossProbability: loss / q.MeanRate(),
		ResponseTime:    Little(l, x),
		Utilization:     c.Probability(pi, func(s int) bool { return level(s) != 0 }),
	}, nil
}

// MG1 is the unbounded M/G/1 queue evaluated by the Pollaczek-
// Khinchine formula — the classical baseline behind Harchol-Balter's
// unbounded-queue analysis that this paper's bounded treatment
// departs from. No program path calls it: it models that baseline,
// and the simulator and core tests compare against it.
type MG1 struct {
	Lambda  float64
	Service dist.Distribution
}

// Utilization is rho = lambda E[S].
func (q MG1) Utilization() float64 { return q.Lambda * q.Service.Mean() }

// MeanWait is the P-K mean waiting time lambda E[S^2] / (2 (1 - rho)).
func (q MG1) MeanWait() float64 {
	rho := q.Utilization()
	if rho >= 1 {
		return math.Inf(1)
	}
	es := q.Service.Mean()
	es2 := q.Service.Var() + es*es
	return q.Lambda * es2 / (2 * (1 - rho))
}

// ResponseTime is E[S] + MeanWait.
func (q MG1) ResponseTime() float64 { return q.Service.Mean() + q.MeanWait() }

// MeanQueueLength is by Little's law.
func (q MG1) MeanQueueLength() float64 { return q.Lambda * q.ResponseTime() }
