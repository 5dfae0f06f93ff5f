package policies

import (
	"math"
	"testing"

	"pepatags/internal/queueing"
)

func TestAdmissionMeasuresAgainstChain(t *testing.T) {
	cases := []AdmissionQueue{
		{Lambda: 3, Mu: 1, Servers: 2, Queue: 4},
		{Lambda: 0.5, Mu: 2, Servers: 1, Queue: 0},
		{Lambda: 12, Mu: 1.5, Servers: 4, Queue: 10},
		{Lambda: 8, Mu: 10, Servers: 1, Queue: 3},
	}
	for _, a := range cases {
		m, err := a.Measures()
		if err != nil {
			t.Fatalf("%+v: %v", a, err)
		}
		ch, err := a.BuildChain()
		if err != nil {
			t.Fatalf("%+v: %v", a, err)
		}
		if ch.NumStates() != m.States {
			t.Fatalf("%+v: chain has %d states, measures report %d", a, ch.NumStates(), m.States)
		}
		pi, err := ch.SteadyState()
		if err != nil {
			t.Fatalf("%+v: steady state: %v", a, err)
		}
		xChain := ch.ActionThroughput(pi, "service")
		rejChain := ch.ActionThroughput(pi, "reject")
		lChain := ch.Expectation(pi, func(s int) float64 { return float64(s) })
		const tol = 1e-9
		if d := math.Abs(xChain - m.Throughput); d > tol*(1+m.Throughput) {
			t.Errorf("%+v: throughput closed-form %g vs chain %g", a, m.Throughput, xChain)
		}
		if d := math.Abs(rejChain - m.RejectRate); d > tol*(1+m.RejectRate) {
			t.Errorf("%+v: reject rate closed-form %g vs chain %g", a, m.RejectRate, rejChain)
		}
		if d := math.Abs(lChain - m.MeanJobs); d > tol*(1+m.MeanJobs) {
			t.Errorf("%+v: mean jobs closed-form %g vs chain %g", a, m.MeanJobs, lChain)
		}
		// Flow balance inside the closed form itself.
		if d := math.Abs(m.Throughput + m.RejectRate - a.Lambda); d > tol*a.Lambda {
			t.Errorf("%+v: throughput %g + reject rate %g != lambda %g", a, m.Throughput, m.RejectRate, a.Lambda)
		}
	}
}

func TestAdmissionMatchesMMcK(t *testing.T) {
	a := AdmissionQueue{Lambda: 7, Mu: 2, Servers: 3, Queue: 5}
	m, err := a.Measures()
	if err != nil {
		t.Fatal(err)
	}
	q := queueing.NewMMcK(a.Lambda, a.Mu, a.Servers, a.Servers+a.Queue)
	if got, want := m.RejectProbability, q.LossProbability(); math.Abs(got-want) > 1e-12 {
		t.Errorf("reject probability %g, M/M/c/K loss %g", got, want)
	}
	if got, want := m.MeanResponse, q.ResponseTime(); math.Abs(got-want) > 1e-12 {
		t.Errorf("mean response %g, M/M/c/K response %g", got, want)
	}
}

func TestAdmissionValidation(t *testing.T) {
	bad := []AdmissionQueue{
		{Lambda: 0, Mu: 1, Servers: 1},
		{Lambda: 1, Mu: 0, Servers: 1},
		{Lambda: 1, Mu: 1, Servers: 0},
		{Lambda: 1, Mu: 1, Servers: 1, Queue: -1},
	}
	for _, a := range bad {
		if _, err := a.Measures(); err == nil {
			t.Errorf("%+v: expected a validation error", a)
		}
		if _, err := a.BuildChain(); err == nil {
			t.Errorf("%+v: BuildChain expected a validation error", a)
		}
	}
}
