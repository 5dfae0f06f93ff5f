package fluid

import (
	"fmt"
	"math"
)

// TAGFluidPlaces is the phase-resolved fluid model in the literal
// Figure 4 style: every queue place and every timer derivative is a
// counted component. The species are
//
//	x[0]            jobs at node 1 (occupied places)
//	x[1..N]         node-1 timer phase occupancies (sum to 1)
//	x[N+1]          jobs at node 2
//	x[N+2..2N+1]    node-2 timer phase occupancies (sum to 1)
//	x[2N+2]         fraction of the node-2 head in residual service
//
// Timer phases are probabilities of the single timer component — the
// fluid counterpart of counting components in each derivative that the
// paper attributes to Hillston [8] / Dizzy [9]. Rates use the
// min-coupling of cooperation: the timer only advances while its queue
// is non-empty (min(1, jobs)).
type TAGFluidPlaces struct {
	Lambda, Mu float64
	T          float64
	N          int
	K1, K2     float64
}

// Model assembles the ODE system.
func (f TAGFluidPlaces) Model() *Model {
	if f.Lambda <= 0 || f.Mu <= 0 || f.T <= 0 || f.N < 1 || f.K1 < 1 || f.K2 < 1 {
		panic(fmt.Sprintf("fluid: invalid TAGFluidPlaces %+v", f))
	}
	n := f.N
	// Species indices.
	q1 := 0
	t1 := func(j int) int { return 1 + j } // phase j = 0..n-1
	q2 := 1 + n
	t2 := func(j int) int { return 2 + n + j }
	srv := 2 + 2*n
	dim := 3 + 2*n

	species := make([]string, dim)
	species[q1] = "Q1"
	species[q2] = "Q2"
	species[srv] = "Q2serving"
	for j := 0; j < n; j++ {
		species[t1(j)] = fmt.Sprintf("T1_%d", j)
		species[t2(j)] = fmt.Sprintf("T2_%d", j)
	}
	init := make([]float64, dim)
	init[t1(n-1)] = 1 // timers start at the top phase
	init[t2(n-1)] = 1

	sat := func(v float64) float64 { return math.Max(0, math.Min(1, v)) }
	delta := func(changes map[int]float64) []float64 {
		d := make([]float64, dim)
		for i, v := range changes {
			d[i] = v
		}
		return d
	}

	var trs []Transition
	// Arrivals.
	trs = append(trs, Transition{
		Name:  "arrival",
		Rate:  func(x []float64) float64 { return f.Lambda * sat(f.K1-x[q1]) },
		Delta: delta(map[int]float64{q1: 1}),
	})
	// service1: resets the node-1 timer (mass from every phase to top).
	for j := 0; j < n; j++ {
		j := j
		ch := map[int]float64{q1: -1}
		if j != n-1 {
			ch[t1(j)] = -1
			ch[t1(n-1)] = 1
		}
		trs = append(trs, Transition{
			Name:  "service1",
			Rate:  func(x []float64) float64 { return f.Mu * sat(x[q1]) * x[t1(j)] },
			Delta: delta(ch),
		})
	}
	// tick1: phase j -> j-1 while node 1 busy.
	for j := 1; j < n; j++ {
		j := j
		trs = append(trs, Transition{
			Name:  "tick1",
			Rate:  func(x []float64) float64 { return f.T * sat(x[q1]) * x[t1(j)] },
			Delta: delta(map[int]float64{t1(j): -1, t1(j - 1): 1}),
		})
	}
	// timeout: fires from phase 0; job moves to node 2 (or is lost when
	// node 2 is full); timer returns to the top.
	trs = append(trs, Transition{
		Name: "timeout",
		Rate: func(x []float64) float64 {
			return f.T * sat(x[q1]) * x[t1(0)] * sat(f.K2-x[q2])
		},
		Delta: delta(map[int]float64{q1: -1, t1(0): -1, t1(n - 1): 1, q2: 1}),
	})
	trs = append(trs, Transition{
		Name: "loss_transfer",
		Rate: func(x []float64) float64 {
			return f.T * sat(x[q1]) * x[t1(0)] * (1 - sat(f.K2-x[q2]))
		},
		Delta: delta(map[int]float64{q1: -1, t1(0): -1, t1(n - 1): 1}),
	})
	// tick2: advances while node 2 has a waiting head (not serving).
	for j := 1; j < n; j++ {
		j := j
		trs = append(trs, Transition{
			Name: "tick2",
			Rate: func(x []float64) float64 {
				return f.T * sat(x[q2]) * (1 - x[srv]) * x[t2(j)]
			},
			Delta: delta(map[int]float64{t2(j): -1, t2(j - 1): 1}),
		})
	}
	// repeatservice: phase 0 fires, head enters residual service, timer
	// returns to the top.
	trs = append(trs, Transition{
		Name: "repeatservice",
		Rate: func(x []float64) float64 {
			return f.T * sat(x[q2]) * (1 - x[srv]) * x[t2(0)]
		},
		Delta: delta(map[int]float64{t2(0): -1, t2(n - 1): 1, srv: 1}),
	})
	// service2: completes the residual service.
	trs = append(trs, Transition{
		Name: "service2",
		Rate: func(x []float64) float64 {
			return f.Mu * sat(x[q2]) * x[srv]
		},
		Delta: delta(map[int]float64{q2: -1, srv: -1}),
	})

	return &Model{Species: species, Init: init, Transitions: trs}
}

// Equilibrium integrates to the fixed point and reports the standard
// measures.
func (f TAGFluidPlaces) Equilibrium() (FluidMeasures, error) {
	m := f.Model()
	x, err := m.Equilibrium(m.Init, 1e-7, 20_000)
	if err != nil {
		return FluidMeasures{}, err
	}
	n := f.N
	out := FluidMeasures{L1: x[0], L2: x[1+n]}
	out.L = out.L1 + out.L2
	out.X1 = m.Flow(x, "service1")
	out.X2 = m.Flow(x, "service2")
	out.X = out.X1 + out.X2
	out.Throughput = out.X
	if out.X > 0 {
		out.W = out.L / out.X
	}
	return out, nil
}
