package conform

import (
	"fmt"
	"testing"

	"pepatags/internal/core"
	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
)

// TestProductDerivationMatchesTAGExp checks the shared TAG product
// derivation (every TAG variant but TAGExp) against the TAGExp oracle:
// at TAGExp's calibrated parameters the product must give TAGExp's
// generator up to relabelling, with the same transition count
// (self-loops included). Three parameterisations reduce to TAGExp:
// TAGHetero with equal node rates, the degenerate TAGH2 (alpha = 1,
// short-branch rate mu) and the two-node TAGMultiNode, whose per-node
// action names are mapped onto the two-node ones.
func TestProductDerivationMatchesTAGExp(t *testing.T) {
	multiActions := map[string]string{
		"service0": core.ActService1, "tick0": core.ActTick1, "transfer0": core.ActTimeout,
		"repeat1": core.ActTick2, "beginservice1": core.ActRepeatService, "service1": core.ActService2,
	}
	for _, p := range []struct {
		lambda, mu, t float64
		n, k1, k2     int
	}{
		{5, 10, 42, 6, 10, 10}, // the paper's 4331-state model
		{9, 10, 12, 2, 3, 4},
		{3, 7, 30, 1, 2, 1},
	} {
		want := core.NewTAGExp(p.lambda, p.mu, p.t, p.n, p.k1, p.k2).Build()
		for _, c := range []struct {
			name  string
			chain *ctmc.Chain
			alias map[string]string
		}{
			{"hetero", core.NewTAGHetero(p.lambda, p.mu, p.mu, p.t, p.t, p.n, p.k1, p.k2).Build(), nil},
			{"h2", core.NewTAGH2(p.lambda, dist.NewH2(1, p.mu, 2*p.mu), p.t, p.n, p.k1, p.k2).Build(), nil},
			{"multinode", core.NewTAGMultiNode(p.lambda, p.mu, p.t, p.n, []int{p.k1, p.k2}).Build(), multiActions},
		} {
			name := fmt.Sprintf("%s/n=%d,k=%d,%d", c.name, p.n, p.k1, p.k2)
			if c.chain.NumStates() != want.NumStates() || c.chain.NumTransitions() != want.NumTransitions() {
				t.Errorf("%s: %d states / %d transitions, TAGExp has %d / %d", name,
					c.chain.NumStates(), c.chain.NumTransitions(), want.NumStates(), want.NumTransitions())
				continue
			}
			if _, err := Isomorphic(c.chain, want, c.alias); err != nil {
				t.Errorf("%s: not isomorphic to TAGExp: %v", name, err)
			}
		}
	}
}
