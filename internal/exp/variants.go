package exp

import (
	"fmt"

	"pepatags/internal/approx"
	"pepatags/internal/core"
	"pepatags/internal/dist"
	"pepatags/internal/obsv"
)

// VariantsTable compares the Section 3 model variants at a common
// operating point: the calibrated Figure 3 model, the literal printed
// Figure 3 semantics, the serve-alone-to-completion variant, and a
// heterogeneous system with a faster second node.
func VariantsTable(p Params) (*obsv.Figure, error) {
	lambdas := []float64{5, 9, 11}
	f := &obsv.Figure{
		ID:     "variants",
		Title:  fmt.Sprintf("Section 3 model variants (mu=%g, t=42, n=%d, K=%d)", p.Mu, p.N, p.K),
		XLabel: "lambda",
	}
	base := obsv.Series{Name: "W-calibrated", X: lambdas}
	lit := obsv.Series{Name: "W-literal-fig3", X: lambdas}
	alone := obsv.Series{Name: "W-serve-alone", X: lambdas}
	hetero := obsv.Series{Name: "W-fast-node2", X: lambdas}
	for _, lambda := range lambdas {
		mb := core.NewTAGExp(lambda, p.Mu, 42, p.N, p.K, p.K)
		rb, err := mb.Analyze()
		if err != nil {
			return nil, err
		}
		ml := mb
		ml.LiteralFigure3 = true
		rl, err := ml.Analyze()
		if err != nil {
			return nil, err
		}
		ma := core.NewTAGHetero(lambda, p.Mu, p.Mu, 42, 42, p.N, p.K, p.K)
		ma.ServeAloneToCompletion = true
		ra, err := ma.Analyze()
		if err != nil {
			return nil, err
		}
		mh := core.NewTAGHetero(lambda, p.Mu, 2*p.Mu, 42, 42, p.N, p.K, p.K)
		rh, err := mh.Analyze()
		if err != nil {
			return nil, err
		}
		base.Y = append(base.Y, rb.W)
		lit.Y = append(lit.Y, rl.W)
		alone.Y = append(alone.Y, ra.W)
		hetero.Y = append(hetero.Y, rh.W)
	}
	f.Series = []obsv.Series{base, lit, alone, hetero}
	f.Notes = append(f.Notes,
		"serve-alone = the paper's 'continue serving this job until it completes or an arrival occurs'",
		"fast-node2 doubles the second node's service rate (heterogeneous extension)")
	return f, nil
}

// SensitivityTable quantifies the paper's "quite sensitive to t"
// warning with elasticities d log(measure)/d log(t) at, below and
// above the optimal rate, for the exponential and H2 systems.
func SensitivityTable(p Params) (*obsv.Figure, error) {
	f := &obsv.Figure{
		ID:     "sensitivity",
		Title:  "Timeout elasticities d log(measure)/d log(t)",
		XLabel: "t",
	}
	expW := obsv.Series{Name: "exp-W-elasticity"}
	expX := obsv.Series{Name: "exp-X-elasticity"}
	h2W := obsv.Series{Name: "h2-W-elasticity"}
	h2X := obsv.Series{Name: "h2-X-elasticity"}
	h := dist.H2ForTAG(0.1, 0.99, 100)
	for _, tr := range []float64{21, 42, 84} {
		s, err := approx.SensitivityExp(11, p.Mu, tr, p.N, p.K, p.K, 0.02)
		if err != nil {
			return nil, err
		}
		expW.X = append(expW.X, tr)
		expW.Y = append(expW.Y, s.W)
		expX.X = append(expX.X, tr)
		expX.Y = append(expX.Y, s.Throughput)
	}
	for _, tr := range []float64{6, 12, 48} {
		s, err := approx.SensitivityH2(11, h, tr, p.N, p.K, p.K, 0.02)
		if err != nil {
			return nil, err
		}
		h2W.X = append(h2W.X, tr)
		h2W.Y = append(h2W.Y, s.W)
		h2X.X = append(h2X.X, tr)
		h2X.Y = append(h2X.Y, s.Throughput)
	}
	f.Series = []obsv.Series{expW, expX, h2W, h2X}
	f.Notes = append(f.Notes,
		"zero elasticity = locally optimal; large magnitude = the paper's tuning sensitivity")
	return f, nil
}
