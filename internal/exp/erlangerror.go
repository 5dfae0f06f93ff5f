package exp

import (
	"fmt"

	"pepatags/internal/core"
	"pepatags/internal/dist"
	"pepatags/internal/obsv"
	"pepatags/internal/policies"
	"pepatags/internal/sim"
	"pepatags/internal/workload"
)

// ErlangErrorTable investigates the question the paper's conclusions
// leave open: "The degree of error introduced by these [Erlang]
// approximations has not been investigated in this paper, but is left
// for future work."
//
// The real TAG timeout is deterministic; the PEPA model replaces it by
// an Erlang with n phases of the same mean. This table fixes the mean
// timeout duration and sweeps n, comparing the CTMC measures against a
// long discrete-event simulation of the true deterministic timeout.
// As n grows the Erlang sharpens towards the constant and the CTMC
// converges to the simulated truth.
func ErlangErrorTable(p Params, jobs int, seed uint64) (*obsv.Figure, error) {
	if jobs <= 0 {
		jobs = 400000
	}
	const (
		lambda = 5.0
		meanTO = 1.0 / 8.5 // the Figure 7 optimal total timeout duration
	)
	// Ground truth: deterministic timeout, exponential service.
	cfg := sim.Config{
		Nodes: []sim.NodeConfig{
			{Capacity: p.K, Timeout: policies.ConstantTimeout(meanTO)},
			{Capacity: p.K},
		},
		Policy: policies.FirstNode{},
		Source: &workload.StochasticSource{
			Arrivals: workload.NewPoisson(lambda),
			Sizes:    dist.NewExponential(p.Mu),
			Limit:    jobs,
		},
		Seed:   seed,
		Warmup: 100,
	}
	truth := sim.NewSystem(cfg).Run(0)

	ns := []float64{1, 2, 3, 4, 6, 8, 12}
	f := &obsv.Figure{
		ID: "erlangerror",
		Title: fmt.Sprintf(
			"Erlang-approximation error vs phases n (lambda=%g, mean timeout %.4g)", lambda, meanTO),
		XLabel: "n",
	}
	wCTMC := obsv.Series{Name: "W-ctmc-erlang", X: ns}
	wTruth := obsv.Series{Name: "W-sim-deterministic", X: ns}
	xCTMC := obsv.Series{Name: "X-ctmc-erlang", X: ns}
	relErr := obsv.Series{Name: "W-relative-error", X: ns}
	for _, nf := range ns {
		n := int(nf)
		t := float64(n) / meanTO // keep the mean duration fixed
		m, err := core.NewTAGExp(lambda, p.Mu, t, n, p.K, p.K).Analyze()
		if err != nil {
			return nil, err
		}
		wCTMC.Y = append(wCTMC.Y, m.W)
		wTruth.Y = append(wTruth.Y, truth.Response.Mean())
		xCTMC.Y = append(xCTMC.Y, m.Throughput)
		relErr.Y = append(relErr.Y, (m.W-truth.Response.Mean())/truth.Response.Mean())
	}
	f.Series = []obsv.Series{wCTMC, wTruth, xCTMC, relErr}
	f.Notes = append(f.Notes,
		fmt.Sprintf("simulated deterministic-timeout truth: W = %.5g ± %.2g, X = %.5g",
			truth.Response.Mean(), truth.Response.CI95(), truth.Throughput()),
		"paper, Section 7: the error of the Erlang stand-in was 'left for future work'")
	return f, nil
}
