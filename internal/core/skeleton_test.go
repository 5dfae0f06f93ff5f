package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
)

// requireSameChain asserts two chains are exactly equal: same labels in
// the same order and the same transitions (endpoints, actions and
// bit-identical rates) in the same order.
func requireSameChain(t *testing.T, got, want *ctmc.Chain) {
	t.Helper()
	if got.NumStates() != want.NumStates() {
		t.Fatalf("states: %d != %d", got.NumStates(), want.NumStates())
	}
	for i := 0; i < got.NumStates(); i++ {
		if got.Label(i) != want.Label(i) {
			t.Fatalf("label %d: %q != %q", i, got.Label(i), want.Label(i))
		}
	}
	gt, wt := got.Transitions(), want.Transitions()
	if len(gt) != len(wt) {
		t.Fatalf("transitions: %d != %d", len(gt), len(wt))
	}
	for k := range gt {
		if gt[k] != wt[k] {
			t.Fatalf("transition %d: %+v != %+v", k, gt[k], wt[k])
		}
	}
}

// TestSkeletonInstantiateMatchesBuild asserts that instantiating a
// model's skeleton at its own rates reproduces Build exactly, and that
// a single skeleton instantiated at a sibling's rates reproduces the
// sibling's Build exactly — the property the sweep cache relies on.
func TestSkeletonInstantiateMatchesBuild(t *testing.T) {
	a := NewTAGExp(5, 10, 12, 3, 4, 4)
	b := NewTAGExp(11, 10, 40, 3, 4, 4) // same shape, different rates
	sk := a.Skeleton()
	for _, m := range []TAGExp{a, b} {
		c, err := sk.Instantiate(m.RateValues())
		if err != nil {
			t.Fatal(err)
		}
		requireSameChain(t, c, m.Build())
	}

	h := dist.H2ForTAG(0.1, 0.95, 10)
	ha := NewTAGH2(5, h, 12, 3, 4, 4)
	hb := NewTAGH2(9, dist.H2ForTAG(0.1, 0.91, 10), 30, 3, 4, 4)
	hsk := ha.Skeleton()
	if hb.Shape() != ha.Shape() {
		t.Fatalf("expected equal shapes: %+v vs %+v", ha.Shape(), hb.Shape())
	}
	for _, m := range []TAGH2{ha, hb} {
		c, err := hsk.Instantiate(m.RateValues())
		if err != nil {
			t.Fatal(err)
		}
		requireSameChain(t, c, m.Build())
	}
}

// TestSkeletonLiteralFigure3 covers the alternate TAGExp semantics,
// which change the shape (extra timer phase, tick2 during service).
func TestSkeletonLiteralFigure3(t *testing.T) {
	m := TAGExp{Lambda: 5, Mu: 10, T: 12, N: 3, K1: 4, K2: 4, LiteralFigure3: true}
	c, err := m.Skeleton().Instantiate(m.RateValues())
	if err != nil {
		t.Fatal(err)
	}
	requireSameChain(t, c, m.Build())
	plain := TAGExp{Lambda: 5, Mu: 10, T: 12, N: 3, K1: 4, K2: 4}
	if m.Shape() == plain.Shape() || m.Shape().Key() == plain.Shape().Key() {
		t.Fatal("literal and calibrated semantics must have distinct shapes")
	}
}

// skeletonFingerprint flattens the derived structure (labels and
// symbolic edges) for equality comparison.
func skeletonFingerprint(sk *Skeleton) string {
	out := ""
	for i := 0; i < sk.NumStates(); i++ {
		out += sk.Label(i) + "\n"
	}
	for _, e := range sk.Edges {
		out += string(rune(e.From)) + string(rune(e.To)) + string(rune(e.Slot)) + string(rune(e.Coeff)) + e.Action + ";"
	}
	return out
}

// TestShapeKeyCollidesIffStructureIdentical is the cache-key property
// test: over a random population of TAGExp and TAGH2 models and the
// product parameterisations, two shape keys are equal if and only if
// the derived skeletons (state spaces and symbolic transition
// structures) are identical.
func TestShapeKeyCollidesIffStructureIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type entry struct {
		key  string
		shp  Shape
		fp   string
		desc string
	}
	var entries []entry
	add := func(m SkeletonModel, desc string) {
		entries = append(entries, entry{key: m.Shape().Key(), shp: m.Shape(), fp: skeletonFingerprint(m.Skeleton()), desc: desc})
	}
	for i := 0; i < 12; i++ {
		n := 1 + rng.Intn(3)
		k1 := 1 + rng.Intn(3)
		k2 := 1 + rng.Intn(3)
		lam := 0.5 + rng.Float64()*10
		me := TAGExp{Lambda: lam, Mu: 10, T: 8, N: n, K1: k1, K2: k2, LiteralFigure3: rng.Intn(2) == 0}
		add(me, "tagexp")
		alpha := 0.85 + rng.Float64()*0.1
		mh := NewTAGH2(lam, dist.H2ForTAG(0.1, alpha, 10), 8, n, k1, k2)
		add(mh, "tagh2")
	}
	// Degenerate H2 cases: alpha exactly 1 collapses branches, giving a
	// different structure (and so a different key) at the same (n,K1,K2).
	det := dist.HyperExp{Alpha: []float64{1, 0}, Mu: []float64{10, 1}}
	add(NewTAGH2(5, det, 8, 2, 2, 2), "tagh2-degenerate")
	add(NewTAGH2(7, det, 24, 2, 2, 2), "tagh2-degenerate")
	mix := dist.H2ForTAG(0.1, 0.9, 10)
	add(NewTAGH2(5, mix, 8, 2, 2, 2), "tagh2-mixed")

	// The product parameterisations. A zero coefficient (exponential
	// service as the alpha = 1 case of H2) or a zero phase-2 arrival
	// rate removes edges, so it must change the key.
	expo, h2 := dist.NewExponential(10), dist.NewH2(0.3, 20, 2)
	for k := 1; k <= 2; k++ {
		add(productModel(NewShortestQueue(5, expo, k).product()), "shortestqueue-exp")
		add(productModel(NewShortestQueue(7, h2, k).product()), "shortestqueue-h2")
		add(productModel(NewRoundRobinTwoNode(5, expo, k).product()), "roundrobin-exp")
		add(productModel(NewRoundRobinTwoNode(5, h2, k).product()), "roundrobin-h2")
		add(productModel(ShortestQueueMMPP{Arrivals: MMPP2{Rate1: 4, Rate2: 0, Switch1: 1, Switch2: 2}, Mu: 10, K: k}.product()), "shortestqueuemmpp-rate2=0")
		add(productModel(ShortestQueueMMPP{Arrivals: MMPP2{Rate1: 4, Rate2: 2, Switch1: 1, Switch2: 2}, Mu: 10, K: k}.product()), "shortestqueuemmpp")
	}
	for n := 1; n <= 2; n++ {
		silent := MMPP2{Rate1: 6, Rate2: 0, Switch1: 1, Switch2: 2}
		bursty := MMPP2{Rate1: 6, Rate2: 2, Switch1: 1, Switch2: 2}
		add(productModel(NewTAGExpMMPP(silent, 10, 8, n, 2, 2).product()), "tagexpmmpp-rate2=0")
		add(productModel(NewTAGExpMMPP(bursty, 10, 8, n, 2, 2).product()), "tagexpmmpp")
		add(productModel(NewTAGH2MMPP(bursty, mix, 8, n, 2, 2).product()), "tagh2mmpp")
		add(productModel(NewTAGH2MMPP(bursty, det, 8, n, 2, 2).product()), "tagh2mmpp-degenerate")
		add(productModel(NewTAGHetero(5, 10, 20, 8, 4, n, 2, 2).product()), "taghetero")
		alone := NewTAGHetero(5, 10, 20, 8, 4, n, 2, 2)
		alone.ServeAloneToCompletion = true
		add(productModel(alone.product()), "taghetero-alone")
		add(productModel(NewTAGMultiNode(5, 10, 8, n, []int{2, 2}).product()), "tagmultinode-2")
		add(productModel(NewTAGMultiNode(5, 10, 8, n, []int{2, 2, 1}).product()), "tagmultinode-3")
		add(productModel(NewTAGMultiNode(5, 10, 8, n, []int{2, 2, 2}).product()), "tagmultinode-3")
	}

	for i := range entries {
		for j := range entries {
			sameKey := entries[i].key == entries[j].key
			sameFp := entries[i].fp == entries[j].fp
			if sameKey != sameFp {
				t.Fatalf("key collision mismatch between %s %+v and %s %+v: sameKey=%t sameStructure=%t",
					entries[i].desc, entries[i].shp, entries[j].desc, entries[j].shp, sameKey, sameFp)
			}
		}
	}
}

// productModel adapts a product parameterisation to SkeletonModel,
// keyed by the shape its derived skeleton carries.
type productModel tagProduct

func (m productModel) Shape() Shape           { return m.Skeleton().Shape }
func (m productModel) Skeleton() *Skeleton    { return tagProduct(m).skeleton() }
func (m productModel) RateValues() RateValues { return m.rates }

// TestInstantiateRejectsDegeneracyMismatch asserts that a skeleton
// derived for a mixed H2 model refuses rate values whose branch
// probabilities are degenerate (structure would differ), and vice
// versa.
func TestInstantiateRejectsDegeneracyMismatch(t *testing.T) {
	mixed := NewTAGH2(5, dist.H2ForTAG(0.1, 0.9, 10), 8, 2, 3, 3)
	det := NewTAGH2(5, dist.HyperExp{Alpha: []float64{1, 0}, Mu: []float64{10, 1}}, 8, 2, 3, 3)
	if _, err := mixed.Skeleton().Instantiate(det.RateValues()); err == nil {
		t.Fatal("expected degeneracy mismatch error (mixed skeleton, degenerate rates)")
	}
	if _, err := det.Skeleton().Instantiate(mixed.RateValues()); err == nil {
		t.Fatal("expected degeneracy mismatch error (degenerate skeleton, mixed rates)")
	}
}

// TestRatesRejectZeroPatternMismatch asserts that a product skeleton
// refuses a binding whose zero pattern differs from the one it was
// derived for, whatever its kind: exponential service against H2 rates
// for the shortest-queue baseline, a silent MMPP phase against a
// bursty one.
func TestRatesRejectZeroPatternMismatch(t *testing.T) {
	silent := MMPP2{Rate1: 6, Rate2: 0, Switch1: 1, Switch2: 2}
	bursty := MMPP2{Rate1: 6, Rate2: 2, Switch1: 1, Switch2: 2}
	pairs := []struct {
		name string
		a, b tagProduct
	}{
		{"shortestqueue", NewShortestQueue(5, dist.NewExponential(10), 3).product(),
			NewShortestQueue(5, dist.NewH2(0.3, 20, 2), 3).product()},
		{"tagexpmmpp", NewTAGExpMMPP(silent, 10, 8, 2, 2, 2).product(), NewTAGExpMMPP(bursty, 10, 8, 2, 2, 2).product()},
	}
	for _, pr := range pairs {
		for _, d := range [][2]tagProduct{{pr.a, pr.b}, {pr.b, pr.a}} {
			sk := d[0].skeleton()
			if err := sk.Rates(d[1].rates, make([]float64, len(sk.Edges))); err == nil {
				t.Errorf("%s: skeleton %+v accepted a binding of zero pattern %02x", pr.name, sk.Shape, d[1].rates.zeroMask())
			}
		}
	}
}

// TestInstantiateRejectsBadRates asserts rate validation at
// instantiation time.
func TestInstantiateRejectsBadRates(t *testing.T) {
	m := NewTAGExp(5, 10, 12, 2, 2, 2)
	sk := m.Skeleton()
	if _, err := sk.Instantiate(RateValues{Lambda: 0, Mu: 10, T: 12}); err == nil {
		t.Fatal("expected error for zero rate")
	}
	rate := make([]float64, len(sk.Edges))
	for _, v := range []RateValues{{Lambda: math.Inf(1), Mu: 10, T: 12}, {Lambda: 5, Mu: math.NaN(), T: 12}} {
		if err := sk.Rates(v, rate); err == nil {
			t.Errorf("Rates accepted %+v", v)
		}
	}
	if err := sk.Rates(m.RateValues(), rate[1:]); err == nil {
		t.Error("Rates filled a buffer one entry short")
	}
}

// TestSkeletonFillMatchesGenerator asserts that the chain-free path —
// Rates into a buffer, then the skeleton's GenPattern filling the
// generator values — gives Build's generator bit for bit, for sibling
// points filled into the same buffers.
func TestSkeletonFillMatchesGenerator(t *testing.T) {
	h := dist.H2ForTAG(0.1, 0.9, 10)
	for _, ms := range [][]SkeletonModel{
		{NewTAGExp(5, 10, 12, 3, 4, 4), NewTAGExp(11, 10, 40, 3, 4, 4)},
		{NewTAGH2(5, h, 12, 3, 4, 4), NewTAGH2(9, h, 30, 3, 4, 4)},
	} {
		sk := ms[0].Skeleton()
		pat := sk.GenPattern()
		rate, out := make([]float64, len(sk.Edges)), make([]float64, sk.NumStates())
		q := pat.CSR(make([]float64, pat.NNZ()))
		for _, m := range ms {
			if err := sk.Rates(m.RateValues(), rate); err != nil {
				t.Fatal(err)
			}
			pat.Fill(rate, out, q.Val)
			want := m.(interface{ Build() *ctmc.Chain }).Build().Generator()
			if !slices.Equal(q.RowPtr, want.RowPtr) || !slices.Equal(q.ColIdx, want.ColIdx) {
				t.Fatalf("%T: generator pattern differs from Build's", m)
			}
			for k, v := range want.Val {
				if math.Float64bits(q.Val[k]) != math.Float64bits(v) {
					t.Fatalf("%T: value %d is %v, Build gives %v", m, k, q.Val[k], v)
				}
			}
		}
	}
}

// TestDerivedStatesMatchReplay checks the derivation's invariant: the
// states it returns are the states replay recovers from the chain
// instantiated from its skeleton, state i at index i, and each TAGExp
// state carries its skeleton label. It covers TAGExp (calibrated,
// literal, one phase) and every product of the variants pin set.
func TestDerivedStatesMatchReplay(t *testing.T) {
	for _, m := range []TAGExp{
		NewTAGExp(7, 10, 28, 4, 6, 6),
		{Lambda: 5, Mu: 10, T: 42, N: 3, K1: 4, K2: 4, LiteralFigure3: true},
		NewTAGExp(5, 10, 42, 1, 3, 3),
	} {
		sk, states := m.derive()
		c, err := sk.Instantiate(m.RateValues())
		if err != nil {
			t.Fatal(err)
		}
		if got := m.stateInfo(c); !slices.Equal(got, states) {
			t.Fatalf("%+v: replay differs from the derived states", m)
		}
		for i, s := range states {
			if s.label() != sk.Label(i) {
				t.Fatalf("%+v: state %d is %q, skeleton label %q", m, i, s.label(), sk.Label(i))
			}
		}
	}
	het := NewTAGHetero(9, 10, 20, 42, 30, 5, 7, 6)
	alone := het
	alone.ServeAloneToCompletion = true
	h2tag := dist.H2ForTAG(0.1, 0.9, 10)
	for name, p := range map[string]tagProduct{
		"tagh2":             NewTAGH2(8, dist.NewH2(0.9, 18, 1.5), 30, 4, 6, 6).product(),
		"tagh2-alpha0":      NewTAGH2(6, dist.NewH2(0, 10, 2), 24, 3, 5, 5).product(),
		"tagh2-alpha1":      NewTAGH2(6, dist.NewH2(1, 10, 2), 24, 3, 5, 5).product(),
		"taghetero":         het.product(),
		"taghetero-alone":   alone.product(),
		"tagexpmmpp":        NewTAGExpMMPP(BurstyMMPP2(8, 2, 0.5), 10, 28, 4, 6, 6).product(),
		"tagh2mmpp":         NewTAGH2MMPP(BurstyMMPP2(6, 1.5, 0.8), dist.NewH2(0.8, 16, 2), 24, 3, 5, 5).product(),
		"tagmultinode-m2":   NewTAGMultiNode(7, 10, 30, 3, []int{6, 6}).product(),
		"tagmultinode-m3":   NewTAGMultiNode(7, 10, 30, 3, []int{4, 3, 3}).product(),
		"jsq":               NewShortestQueue(11, dist.NewExponential(10), 6).product(),
		"jsq-h2":            NewShortestQueue(11, h2tag, 8).product(),
		"jsqmmpp":           ShortestQueueMMPP{Arrivals: BurstyMMPP2(8, 1.9, 0.4), Mu: 10, K: 8}.product(),
		"jsqmmpp-rate2zero": ShortestQueueMMPP{Arrivals: BurstyMMPP2(8, 2, 0.5), Mu: 10, K: 6}.product(),
		"roundrobin":        NewRoundRobinTwoNode(9, dist.NewExponential(10), 6).product(),
		"roundrobin-h2":     NewRoundRobinTwoNode(8, h2tag, 7).product(),
	} {
		sk, states := p.derive()
		c, err := sk.Instantiate(p.rates)
		if err != nil {
			t.Fatal(err)
		}
		got := p.decode(c)
		if len(got) != len(states) || len(states) != sk.NumStates() {
			t.Fatalf("%s: replayed %d states, derived %d, skeleton %d", name, len(got), len(states), sk.NumStates())
		}
		for i := range states {
			if got[i].label() != states[i].label() || states[i].label() != sk.Label(i) {
				t.Fatalf("%s: state %d replays as %q, derived %q, skeleton label %q", name, i, got[i].label(), states[i].label(), sk.Label(i))
			}
		}
	}
}

// TestReplayRejectsForeignChain checks that replay panics on a chain
// that its derivation did not produce: a chain of another shape, and a
// chain with its last transition missing or one transition too many.
func TestReplayRejectsForeignChain(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	k10 := NewTAGExp(5, 10, 42, 3, 10, 10)
	k11 := NewTAGExp(5, 10, 42, 3, 11, 10)
	mustPanic("K1=10 chain replayed as K1=11", func() { k11.stateInfo(k10.Build()) })
	mustPanic("K1=11 chain replayed as K1=10", func() { k10.stateInfo(k11.Build()) })
	lit := TAGExp{Lambda: 5, Mu: 10, T: 42, N: 3, K1: 4, K2: 4, LiteralFigure3: true}
	cal := NewTAGExp(5, 10, 42, 3, 4, 4)
	mustPanic("literal chain replayed as calibrated", func() { cal.stateInfo(lit.Build()) })
	mixed := NewTAGH2(6, dist.NewH2(0.8, 10, 2), 24, 3, 5, 5)
	det := NewTAGH2(6, dist.NewH2(1, 10, 2), 24, 3, 5, 5)
	mustPanic("mixed H2 chain replayed as alpha = 1", func() { det.product().decode(mixed.Build()) })

	c := cal.Build()
	n := make([]string, c.NumStates())
	for i := range n {
		n[i] = c.Label(i)
	}
	trs := c.Transitions()
	cut := ctmc.NewChain(n, trs[:len(trs)-1])
	mustPanic("last transition dropped", func() { cal.stateInfo(cut) })
	extra := ctmc.NewChain(n, append(slices.Clone(trs), trs[0]))
	mustPanic("a transition appended", func() { cal.stateInfo(extra) })
	if got := cal.stateInfo(ctmc.NewChain(n, trs)); len(got) != c.NumStates() {
		t.Fatalf("the whole chain replays to %d states, want %d", len(got), c.NumStates())
	}
}
