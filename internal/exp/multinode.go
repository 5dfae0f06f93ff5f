package exp

import (
	"fmt"

	"pepatags/internal/core"
	"pepatags/internal/dist"
	"pepatags/internal/obsv"
)

// MultiNodeTable exercises the paper's "simple matter to add more
// nodes" extension: a three-node TAG chain against the two-node system
// across loads, at small n and K to keep the three-node CTMC
// tractable.
func MultiNodeTable(p Params) (*obsv.Figure, error) {
	const (
		mu = 10.0
		tr = 20.0
		n  = 2
		k  = 5
	)
	lambdas := []float64{5, 8, 11, 14}
	f := &obsv.Figure{
		ID:     "multinode",
		Title:  fmt.Sprintf("Two- vs three-node TAG (mu=%g, t=%g, n=%d, K=%d per node)", mu, tr, n, k),
		XLabel: "lambda",
	}
	w2 := obsv.Series{Name: "W-2node", X: lambdas}
	w3 := obsv.Series{Name: "W-3node", X: lambdas}
	x2 := obsv.Series{Name: "X-2node", X: lambdas}
	x3 := obsv.Series{Name: "X-3node", X: lambdas}
	for _, lambda := range lambdas {
		m2, err := core.NewTAGMultiNode(lambda, mu, tr, n, []int{k, k}).Analyze()
		if err != nil {
			return nil, err
		}
		m3, err := core.NewTAGMultiNode(lambda, mu, tr, n, []int{k, k, k}).Analyze()
		if err != nil {
			return nil, err
		}
		w2.Y = append(w2.Y, m2.W)
		w3.Y = append(w3.Y, m3.W)
		x2.Y = append(x2.Y, m2.Throughput)
		x3.Y = append(x3.Y, m3.Throughput)
	}
	f.Series = []obsv.Series{w2, w3, x2, x3}
	f.Notes = append(f.Notes,
		"a third node adds buffer and service capacity at the cost of double repeat work for twice-killed jobs")
	return f, nil
}

// PassageTable quantifies the paper's Section 5 loss argument with
// first-passage times: the expected time from an empty system until
// each TAG queue first fills, against the time until the
// shortest-queue system has either (and both) queues full.
func PassageTable(p Params) (*obsv.Figure, error) {
	lambdas := []float64{9, 11, 13}
	f := &obsv.Figure{
		ID:     "passage",
		Title:  fmt.Sprintf("Expected time from empty until queues first fill (mu=%g, n=%d, K=%d, t=42)", p.Mu, p.N, p.K),
		XLabel: "lambda",
	}
	t1 := obsv.Series{Name: "TAG-node1-fills", X: lambdas}
	t2 := obsv.Series{Name: "TAG-node2-fills", X: lambdas}
	se := obsv.Series{Name: "SQ-either-fills", X: lambdas}
	sb := obsv.Series{Name: "SQ-both-fill(loss)", X: lambdas}
	for _, lambda := range lambdas {
		tag := core.NewTAGExp(lambda, p.Mu, 42, p.N, p.K, p.K)
		a, b, err := tag.ExpectedFillTimes()
		if err != nil {
			return nil, err
		}
		sq := core.NewShortestQueue(lambda, dist.NewExponential(p.Mu), p.K)
		e, both, err := sq.ExpectedFillTime()
		if err != nil {
			return nil, err
		}
		t1.Y = append(t1.Y, a)
		t2.Y = append(t2.Y, b)
		se.Y = append(se.Y, e)
		sb.Y = append(sb.Y, both)
	}
	f.Series = []obsv.Series{t1, t2, se, sb}
	f.Notes = append(f.Notes,
		"TAG loses jobs when either queue fills; SQ only when both do — compare TAG-node2 vs SQ-both")
	return f, nil
}
