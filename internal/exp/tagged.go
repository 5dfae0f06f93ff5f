package exp

import (
	"fmt"

	"pepatags/internal/core"
	"pepatags/internal/dist"
	"pepatags/internal/obsv"
)

// TaggedTable reports the exact response-time distribution of an
// admitted TAG job across loads — median, p90, p99, the conditional
// mean, and the success probability — from the tagged-job absorbing
// chain. This extends the paper's mean-value analysis to percentiles
// and quantifies its "delay is bounded" claim.
func TaggedTable(p Params) (*obsv.Figure, error) {
	lambdas := []float64{5, 7, 9, 11}
	f := &obsv.Figure{
		ID:     "tagged",
		Title:  fmt.Sprintf("Exact response-time percentiles of admitted TAG jobs (mu=%g, t=42, n=%d, K=%d)", p.Mu, p.N, p.K),
		XLabel: "lambda",
	}
	mean := obsv.Series{Name: "mean", X: lambdas}
	med := obsv.Series{Name: "p50", X: lambdas}
	p90 := obsv.Series{Name: "p90", X: lambdas}
	p99 := obsv.Series{Name: "p99", X: lambdas}
	succ := obsv.Series{Name: "P(success)", X: lambdas}
	sqP99 := obsv.Series{Name: "SQ-p99", X: lambdas}
	for _, lambda := range lambdas {
		m := core.NewTAGExp(lambda, p.Mu, 42, p.N, p.K, p.K)
		tr, err := m.TaggedJob()
		if err != nil {
			return nil, err
		}
		mean.Y = append(mean.Y, tr.MeanResponse())
		for _, pct := range []struct {
			s *obsv.Series
			q float64
		}{{&med, 0.5}, {&p90, 0.9}, {&p99, 0.99}} {
			x, err := tr.Percentile(pct.q)
			if err != nil {
				return nil, err
			}
			pct.s.Y = append(pct.s.Y, x)
		}
		succ.Y = append(succ.Y, tr.SuccessProbability())
		sq, err := core.NewShortestQueue(lambda, dist.NewExponential(p.Mu), p.K).ResponseDistribution()
		if err != nil {
			return nil, err
		}
		x99, err := sq.Percentile(0.99)
		if err != nil {
			return nil, err
		}
		sqP99.Y = append(sqP99.Y, x99)
	}
	f.Series = []obsv.Series{mean, med, p90, p99, succ, sqP99}
	f.Notes = append(f.Notes,
		"SQ-p99 = the shortest-queue baseline's analytic p99 (Erlang position mixture)")
	return f, nil
}
