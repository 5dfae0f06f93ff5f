package exp

import (
	"fmt"

	"pepatags/internal/core"
	"pepatags/internal/dist"
	"pepatags/internal/obsv"
)

// FairnessTable disaggregates the Figure 9 system by job class using
// the tagged-job analysis: mean conditional response and slowdown of
// short versus long jobs across timeout rates. Near the optimal
// timeout the two classes' slowdowns nearly coincide — the "slowdown
// nearly constant regardless of job length" fairness property of the
// paper's footnote 1 — while a mistuned timeout punishes one class.
func FairnessTable(p Params) (*obsv.Figure, error) {
	const lambda = 11
	h := dist.H2ForTAG(0.1, 0.99, 100)
	rates := []float64{1, 2, 4, 8}
	f := &obsv.Figure{
		ID:     "fairness",
		Title:  "Per-class slowdown under TAG (lambda=11, H2: alpha=0.99, mu1=100mu2)",
		XLabel: "timeout-rate",
	}
	sShort := obsv.Series{Name: "slowdown-short", X: rates}
	sLong := obsv.Series{Name: "slowdown-long", X: rates}
	wShort := obsv.Series{Name: "W-short", X: rates}
	wLong := obsv.Series{Name: "W-long", X: rates}
	pLong := obsv.Series{Name: "P(success)-long", X: rates}
	for _, eff := range rates {
		m := core.NewTAGH2(lambda, h, p.effToT(eff), p.N, p.K, p.K)
		cr, err := m.ClassResponses()
		if err != nil {
			return nil, fmt.Errorf("fairness at rate %g: %w", eff, err)
		}
		sShort.Y = append(sShort.Y, cr[0].MeanSlowdown)
		sLong.Y = append(sLong.Y, cr[1].MeanSlowdown)
		wShort.Y = append(wShort.Y, cr[0].MeanResponse)
		wLong.Y = append(wLong.Y, cr[1].MeanResponse)
		pLong.Y = append(pLong.Y, cr[1].SuccessProb)
	}
	f.Series = []obsv.Series{sShort, sLong, wShort, wLong, pLong}
	f.Notes = append(f.Notes,
		"short jobs: mean 1/19.9; long jobs: mean 1/0.199 (100x). Fairness = the two slowdown rows close together.")
	return f, nil
}
