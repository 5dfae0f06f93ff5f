package exp

import (
	"fmt"

	"pepatags/internal/dist"
	"pepatags/internal/obsv"
	"pepatags/internal/policies"
	"pepatags/internal/sim"
	"pepatags/internal/workload"
)

// SlowdownTable reproduces the metric behind the paper's source [5]
// (Harchol-Balter's TAGS): mean slowdown, overall and per size band,
// under a heavy-tailed bounded-Pareto demand. TAG should deliver a
// much lower mean slowdown than random or shortest-queue allocation —
// and a flatter slowdown-vs-size profile for the small-job bands (the
// fairness view of footnote 1).
func SlowdownTable(p Params, jobs int, seed uint64) (*obsv.Figure, error) {
	if jobs <= 0 {
		jobs = 300000
	}
	// Bounded Pareto with mean ~0.1 and a 10^4 size range, shaped like
	// Harchol-Balter's process-lifetime fits (alpha ~ 1.1).
	raw := dist.NewBoundedPareto(1, 1e4, 1.1)
	scale := 0.1 / raw.Mean()
	sizes := dist.NewBoundedPareto(scale, 1e4*scale, 1.1)
	// Size bands: small/medium/large/huge.
	bands := []float64{2 * scale, 10 * scale, 100 * scale}

	const lambda = 8.0
	// Deterministic TAG timeout tuned for mean slowdown (about 20x the
	// minimum size; found by a coarse sweep, cf. [5]'s cutoff tuning).
	tau := 20 * scale

	run := func(policy sim.Policy, withTimeout bool) *sim.Metrics {
		cfg := sim.Config{
			Nodes:  []sim.NodeConfig{{}, {}}, // unbounded, as in [5]
			Policy: policy,
			Source: &workload.StochasticSource{
				Arrivals: workload.NewPoisson(lambda),
				Sizes:    sizes,
				Limit:    jobs,
			},
			Seed:      seed,
			Warmup:    50,
			SizeBands: bands,
		}
		if withTimeout {
			cfg.Nodes[0].Timeout = policies.ConstantTimeout(tau)
		}
		return sim.NewSystem(cfg).Run(0)
	}

	type row struct {
		name string
		m    *sim.Metrics
	}
	rows := []row{
		{"tag", run(policies.FirstNode{}, true)},
		{"random", run(policies.NewUniformRandom(2), false)},
		{"shortest-queue", run(policies.ShortestQueue{}, false)},
	}
	f := &obsv.Figure{
		ID:     "slowdown",
		Title:  "Mean slowdown under bounded-Pareto demand (the [5] metric; simulation)",
		XLabel: "policy",
		Notes: []string{
			fmt.Sprintf("sizes: %s, bands at %.3g/%.3g/%.3g, lambda=%g, tau=%.3g",
				sizes, bands[0], bands[1], bands[2], lambda, tau),
		},
	}
	overall := obsv.Series{Name: "mean-slowdown"}
	small := obsv.Series{Name: "slowdown-small"}
	large := obsv.Series{Name: "slowdown-large"}
	for i, r := range rows {
		x := float64(i)
		overall.X = append(overall.X, x)
		overall.Y = append(overall.Y, r.m.Slowdown.Mean())
		small.X = append(small.X, x)
		small.Y = append(small.Y, r.m.BandSlowdown[0].Mean())
		large.X = append(large.X, x)
		large.Y = append(large.Y, r.m.BandSlowdown[3].Mean())
		f.Notes = append(f.Notes, fmt.Sprintf("x=%d: %s", i, r.name))
	}
	f.Series = []obsv.Series{overall, small, large}
	return f, nil
}
