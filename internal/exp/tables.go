package exp

import (
	"fmt"
	"math/rand/v2"

	"pepatags/internal/approx"
	"pepatags/internal/core"
	"pepatags/internal/dist"
	"pepatags/internal/fluid"
	"pepatags/internal/obsv"
	"pepatags/internal/pepa"
	"pepatags/internal/policies"
	"pepatags/internal/sim"
	"pepatags/internal/workload"
)

// StateSpaceTable reproduces the paper's state-space discussion
// (Section 3.1 / Section 5): the derivative-product bound
// (K1(n+1)+1)(K2(n+2)+1) against the reachable CTMC sizes of the
// direct builder and of the PEPA engine applied to the generated
// model text.
func StateSpaceTable(p Params) (*obsv.Figure, error) {
	ns := []float64{2, 4, 6}
	f := &obsv.Figure{
		ID:     "statespace",
		Title:  "CTMC sizes vs Erlang phases n (K1=K2=10)",
		XLabel: "n",
	}
	bound := obsv.Series{Name: "paper-product-bound", X: ns}
	direct := obsv.Series{Name: "reachable-direct", X: ns}
	engine := obsv.Series{Name: "reachable-pepa-engine", X: ns}
	for _, nf := range ns {
		n := int(nf)
		bound.Y = append(bound.Y, float64((p.K*(n+1)+1)*(p.K*(n+2)+1)))
		m := core.NewTAGExp(5, p.Mu, 42, n, p.K, p.K)
		direct.Y = append(direct.Y, float64(m.Build().NumStates()))
		pm, err := pepa.Parse(m.PEPASource())
		if err != nil {
			return nil, err
		}
		ss, err := pepa.Derive(pm, pepa.DeriveOptions{Workers: p.Workers})
		if err != nil {
			return nil, err
		}
		engine.Y = append(engine.Y, float64(ss.Chain.NumStates()))
	}
	f.Series = []obsv.Series{bound, direct, engine}
	f.Notes = append(f.Notes, "paper reports 4331 reachable states at n=6, K=10")
	return f, nil
}

// ApproxTable reproduces the Section 4 numbers: the balance timeout for
// the exponential case (~6.18 at mu=10) and the effective Erlang-race
// rate rising towards ~8.7-9 as n grows.
func ApproxTable(p Params) (*obsv.Figure, error) {
	ns := []float64{1, 2, 4, 6, 12, 24, 48, 96}
	f := &obsv.Figure{
		ID:     "approx",
		Title:  "Section 4 balance approximations (mu=10)",
		XLabel: "n",
	}
	phase := obsv.Series{Name: "phase-rate-t", X: ns}
	eff := obsv.Series{Name: "effective-rate-t/n", X: ns}
	for _, nf := range ns {
		tr, err := approx.ErlangRaceBalanceRate(p.Mu, int(nf))
		if err != nil {
			return nil, err
		}
		phase.Y = append(phase.Y, tr)
		eff.Y = append(eff.Y, tr/nf)
	}
	f.Series = []obsv.Series{phase, eff}
	f.Notes = append(f.Notes,
		fmt.Sprintf("exponential balance timeout T = %.4g (paper: ~6.17)", approx.ExponentialBalanceTimeout(p.Mu)),
		fmt.Sprintf("deterministic limit rate = %.4g (paper: 'around 9')", approx.DeterministicBalanceRate(p.Mu)))
	return f, nil
}

// FluidTable compares the fluid (ODE) equilibrium of the Section 3.1
// alternative model against the exact CTMC across timeout rates.
func FluidTable(p Params) (*obsv.Figure, error) {
	const lambda = 11
	f := &obsv.Figure{
		ID:     "fluid",
		Title:  "Fluid (ODE) equilibrium vs CTMC (lambda=11, mu=10)",
		XLabel: "timeout-rate",
	}
	fl1 := obsv.Series{Name: "fluid-L1", X: p.Rates}
	fl2 := obsv.Series{Name: "fluid-L2", X: p.Rates}
	ex1 := obsv.Series{Name: "ctmc-L1", X: p.Rates}
	ex2 := obsv.Series{Name: "ctmc-L2", X: p.Rates}
	for _, eff := range p.Rates {
		t := p.effToT(eff)
		fm, err := fluid.TAGFluid{Lambda: lambda, Mu: p.Mu, T: t, N: p.N,
			K1: float64(p.K), K2: float64(p.K)}.Equilibrium()
		if err != nil {
			return nil, err
		}
		em, err := core.NewTAGExp(lambda, p.Mu, t, p.N, p.K, p.K).Analyze()
		if err != nil {
			return nil, err
		}
		fl1.Y = append(fl1.Y, fm.L1)
		fl2.Y = append(fl2.Y, fm.L2)
		ex1.Y = append(ex1.Y, em.L1)
		ex2.Y = append(ex2.Y, em.L2)
	}
	f.Series = []obsv.Series{fl1, ex1, fl2, ex2}
	f.Notes = append(f.Notes, "the fluid limit under-estimates queueing at small K; shapes should agree")
	return f, nil
}

// BurstyTable explores the Section 7 conjecture by simulation: bursty
// (MMPP-2) arrivals hurt TAG more than the shortest-queue strategy,
// and an adaptive timeout recovers part of the loss.
func BurstyTable(p Params, jobs int, seed uint64) (*obsv.Figure, error) {
	if jobs <= 0 {
		jobs = 200000
	}
	const meanRate = 8.0
	h := dist.H2ForTAG(0.1, 0.99, 100)
	tau := 0.35 // near-optimal deterministic timeout for this workload

	// Scenario workloads share the same mean arrival rate. The bursty
	// source realises the paper's conjecture verbatim: "bursts
	// consisting solely of short jobs" — during the high-rate phase,
	// every arrival is a short job (the H2's fast branch); quiet-phase
	// arrivals carry the long jobs.
	poisson := func() workload.Source {
		return &workload.StochasticSource{
			Arrivals: workload.NewPoisson(meanRate), Sizes: h, Limit: jobs}
	}
	shortBursts := func() workload.Source {
		return &workload.ModulatedSource{
			Arrivals:   workload.NewMMPP2(1.9*meanRate, 0.1*meanRate, 0.5, 0.5),
			BurstSizes: dist.NewExponential(h.Mu[0]), // short jobs only
			BaseSizes:  dist.NewH2(0.81, h.Mu[0], h.Mu[1]),
			Limit:      jobs,
		}
	}
	// run simulates one scenario; adaptive toggles the dynamic timeout
	// the paper's Section 7 suggests.
	run := func(policy sim.Policy, src workload.Source,
		timeout func(*rand.Rand) float64, adaptive bool) *sim.Metrics {
		cfg := sim.Config{
			Nodes: []sim.NodeConfig{
				{Capacity: p.K, Timeout: timeout},
				{Capacity: p.K},
			},
			Policy: policy,
			Source: src,
			Seed:   seed,
			Warmup: 50,
		}
		var sys *sim.System
		if adaptive {
			// Late-bound closure: sys is assigned before Run fires any
			// timeout samples.
			cfg.Nodes[0].Timeout = policies.AdaptiveTimeout(
				func() int { return sys.QueueLength(0) }, tau, 0.15)
		}
		sys = sim.NewSystem(cfg)
		return sys.Run(0)
	}

	type scenario struct {
		name string
		m    *sim.Metrics
	}
	scenarios := []scenario{
		{"tag-poisson", run(policies.FirstNode{}, poisson(), policies.ConstantTimeout(tau), false)},
		{"tag-shortbursts", run(policies.FirstNode{}, shortBursts(), policies.ConstantTimeout(tau), false)},
		{"tag-adaptive-shortbursts", run(policies.FirstNode{}, shortBursts(), nil, true)},
		{"sq-poisson", run(policies.ShortestQueue{}, poisson(), nil, false)},
		{"sq-shortbursts", run(policies.ShortestQueue{}, shortBursts(), nil, false)},
	}
	f := &obsv.Figure{
		ID:     "bursty",
		Title:  "Section 7: burstiness penalty by policy (simulation, H2 demand)",
		XLabel: "scenario",
	}
	wS := obsv.Series{Name: "mean-response"}
	xS := obsv.Series{Name: "throughput"}
	lS := obsv.Series{Name: "loss-prob"}
	for i, sc := range scenarios {
		x := float64(i)
		wS.X = append(wS.X, x)
		wS.Y = append(wS.Y, sc.m.Response.Mean())
		xS.X = append(xS.X, x)
		xS.Y = append(xS.Y, sc.m.Throughput())
		lS.X = append(lS.X, x)
		lS.Y = append(lS.Y, sc.m.LossProbability())
		f.Notes = append(f.Notes, fmt.Sprintf("x=%d: %s", i, sc.name))
	}
	f.Series = []obsv.Series{wS, xS, lS}
	return f, nil
}
