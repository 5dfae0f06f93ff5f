package sweep_test

import (
	"testing"

	"pepatags/internal/exp"
	"pepatags/internal/sweep"
)

// freshEqualsMisses checks that the admission estimate of a spec — the
// distinct shapes its points key to — is the number of derivations a
// serial run on a fresh cache pays.
func freshEqualsMisses(t *testing.T, spec *sweep.Spec) {
	t.Helper()
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run(spec, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fresh := sweep.FreshShapes(points, nil); int64(fresh) != res.CacheMisses {
		t.Errorf("%s: FreshShapes = %d, a fresh-cache run missed %d times", spec.Name, fresh, res.CacheMisses)
	}
}

// TestFreshShapesMatchCacheMisses pins the shape each point keys to
// against the shapes its solve derives, on every built-in figure and
// on a spec that mixes every model kind.
func TestFreshShapesMatchCacheMisses(t *testing.T) {
	for _, id := range exp.SweepFigureIDs() {
		spec, err := exp.SweepSpec(id, exp.ShortParams())
		if err != nil {
			t.Fatal(err)
		}
		freshEqualsMisses(t, spec)
	}

	expo := sweep.ServiceSpec{Kind: "exp", Mu: 10}
	h2 := sweep.ServiceSpec{Kind: "h2", Mean: 0.1, Alpha: 0.95, Ratio: 10}
	freshEqualsMisses(t, &sweep.Spec{
		Schema: sweep.SpecSchema,
		Name:   "mixed",
		Points: []sweep.Point{
			{Series: "tagexp", Model: "tagexp", Lambda: 5, T: 12, N: 2, K1: 3, K2: 3, Service: expo},
			{Series: "tagexp", Model: "tagexp", Lambda: 7, T: 0.5, N: 2, K1: 3, K2: 3, Service: expo},
			{Series: "tagh2", Model: "tagh2", Lambda: 5, T: 12, N: 2, K1: 3, K2: 3, Service: h2},
			{Series: "tagh2", Model: "tagh2", Lambda: 5, T: 0.5, N: 2, K1: 3, K2: 3, Service: h2},
			{Series: "opt-exp", Model: "opt-t", Metric: "min-queue", Lambda: 5, N: 3, K1: 3, K2: 3, Service: expo, TLo: 4, THi: 20, TStep: 4},
			{Series: "opt-h2", Model: "opt-t", Metric: "min-response", Lambda: 5, N: 3, K1: 3, K2: 3, Service: h2, TLo: 2, THi: 12},
			{Series: "random", Model: "random", Lambda: 5, K1: 3, Service: expo},
			{Series: "rr", Model: "round-robin", Lambda: 5, K1: 3, Service: h2},
			{Series: "sq", Model: "shortest-queue", Lambda: 5, K1: 3, Service: expo},
		},
	})
}
