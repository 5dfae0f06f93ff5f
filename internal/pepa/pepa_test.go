package pepa

import (
	"errors"
	"math"
	"strings"
	"testing"

	"pepatags/internal/ctmc"
	"pepatags/internal/numeric"
	"pepatags/internal/obsv"
)

func mustDerive(t *testing.T, m *Model) *StateSpace {
	t.Helper()
	ss, err := Derive(m, DeriveOptions{})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	return ss
}

func mustParse(t *testing.T, src string) *Model {
	t.Helper()
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return m
}

// stateOf returns the index of the state labelled label.
func stateOf(t *testing.T, c *ctmc.Chain, label string) int {
	t.Helper()
	for i := 0; i < c.NumStates(); i++ {
		if c.Label(i) == label {
			return i
		}
	}
	t.Fatalf("no state labelled %q", label)
	return -1
}

func TestTwoStateToggle(t *testing.T) {
	m := NewModel()
	m.Define("P", Pre("a", ActiveRate(2), Ref("P1")))
	m.Define("P1", Pre("b", ActiveRate(3), Ref("P")))
	m.System = &Leaf{Init: Ref("P")}
	ss := mustDerive(t, m)
	if ss.Chain.NumStates() != 2 {
		t.Fatalf("states %d want 2", ss.Chain.NumStates())
	}
	pi, err := ss.Chain.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	// Sojourn 1/2 in P, 1/3 in P1 -> pi = (3/5, 2/5).
	i, j := stateOf(t, ss.Chain, "P"), stateOf(t, ss.Chain, "P1")
	if !numeric.AlmostEqual(pi[i], 0.6, 1e-12) || !numeric.AlmostEqual(pi[j], 0.4, 1e-12) {
		t.Fatalf("pi=%v", pi)
	}
	// Throughput of a equals throughput of b = 2*0.6 = 1.2.
	if tp := ss.Chain.ActionThroughput(pi, "a"); !numeric.AlmostEqual(tp, 1.2, 1e-12) {
		t.Fatalf("throughput %v", tp)
	}
}

func TestActiveActiveSharedRateIsMin(t *testing.T) {
	// P = (a,2).P', Q = (a,3).Q'; shared a occurs at min(2,3) = 2.
	m := NewModel()
	m.Define("P", Pre("a", ActiveRate(2), Ref("P2")))
	m.Define("P2", Pre("r", ActiveRate(1), Ref("P")))
	m.Define("Q", Pre("a", ActiveRate(3), Ref("Q2")))
	m.Define("Q2", Pre("s", ActiveRate(1), Ref("Q")))
	m.System = &Coop{Left: &Leaf{Init: Ref("P")}, Right: &Leaf{Init: Ref("Q")}, Set: NewActionSet("a")}
	ss := mustDerive(t, m)
	for _, tr := range ss.Chain.Transitions() {
		if tr.Action == "a" && !numeric.AlmostEqual(tr.Rate, 2, 1e-14) {
			t.Fatalf("shared rate %v want 2", tr.Rate)
		}
	}
}

func TestPassiveActiveShared(t *testing.T) {
	// Passive side adopts active rate; branching splits by weight.
	m := NewModel()
	m.Define("P", Sum(
		Pre("a", WeightedPassive(1), Ref("PX")),
		Pre("a", WeightedPassive(3), Ref("PY")),
	))
	m.Define("PX", Pre("x", ActiveRate(1), Ref("P")))
	m.Define("PY", Pre("y", ActiveRate(1), Ref("P")))
	m.Define("Q", Pre("a", ActiveRate(8), Ref("Q2")))
	m.Define("Q2", Pre("z", ActiveRate(1), Ref("Q")))
	m.System = &Coop{Left: &Leaf{Init: Ref("P")}, Right: &Leaf{Init: Ref("Q")}, Set: NewActionSet("a")}
	ss := mustDerive(t, m)
	var rates []float64
	for _, tr := range ss.Chain.Transitions() {
		if tr.Action == "a" {
			rates = append(rates, tr.Rate)
		}
	}
	if len(rates) != 2 {
		t.Fatalf("want 2 shared transitions, got %v", rates)
	}
	// Weights 1:3 of total rate 8 -> 2 and 6.
	lo, hi := math.Min(rates[0], rates[1]), math.Max(rates[0], rates[1])
	if !numeric.AlmostEqual(lo, 2, 1e-12) || !numeric.AlmostEqual(hi, 6, 1e-12) {
		t.Fatalf("rates %v want 2 and 6", rates)
	}
}

func TestChoiceApparentRateSplitsEvenly(t *testing.T) {
	// P = (a,1).X + (a,1).Y sync Q = (a,2).Z: two transitions of rate 1.
	m := NewModel()
	m.Define("P", Sum(
		Pre("a", ActiveRate(1), Ref("X")),
		Pre("a", ActiveRate(1), Ref("Y")),
	))
	m.Define("X", Pre("u", ActiveRate(1), Ref("P")))
	m.Define("Y", Pre("v", ActiveRate(1), Ref("P")))
	m.Define("Q", Pre("a", ActiveRate(2), Ref("Z")))
	m.Define("Z", Pre("w", ActiveRate(1), Ref("Q")))
	m.System = &Coop{Left: &Leaf{Init: Ref("P")}, Right: &Leaf{Init: Ref("Q")}, Set: NewActionSet("a")}
	ss := mustDerive(t, m)
	count := 0
	for _, tr := range ss.Chain.Transitions() {
		if tr.Action == "a" {
			count++
			if !numeric.AlmostEqual(tr.Rate, 1, 1e-14) {
				t.Fatalf("rate %v want 1", tr.Rate)
			}
		}
	}
	if count != 2 {
		t.Fatalf("count %d want 2", count)
	}
}

func TestMM1KViaCooperationMatchesClosedForm(t *testing.T) {
	// Queue counts jobs; server performs service actively.
	src := `
	lambda = 5;
	mu = 10;
	Q0 = (arrival, lambda).Q1;
	Q1 = (arrival, lambda).Q2 + (service, T).Q0;
	Q2 = (arrival, lambda).Q3 + (service, T).Q1;
	Q3 = (service, T).Q2;
	S = (service, mu).S;
	Q0 <service> S
	`
	m := mustParse(t, src)
	ss := mustDerive(t, m)
	if ss.Chain.NumStates() != 4 {
		t.Fatalf("states %d want 4", ss.Chain.NumStates())
	}
	pi, err := ss.Chain.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	rho := 0.5
	norm := 1 + rho + rho*rho + rho*rho*rho
	for lvl, label := range []string{"Q0", "Q1", "Q2", "Q3"} {
		var got float64
		for s := 0; s < ss.Chain.NumStates(); s++ {
			if ss.LeafDerivative(s, 0) == label {
				got += pi[s]
			}
		}
		want := math.Pow(rho, float64(lvl)) / norm
		if !numeric.AlmostEqual(got, want, 1e-10) {
			t.Fatalf("P(%s) = %v want %v", label, got, want)
		}
	}
}

func TestParallelQueuesProductForm(t *testing.T) {
	// Appendix A: two independent M/M/1/N queues compose with ||; the
	// joint distribution is the product of the marginals.
	src := `
	l1 = 2; m1 = 5;
	l2 = 3; m2 = 4;
	A0 = (arr1, l1).A1;
	A1 = (arr1, l1).A2 + (srv1, m1).A0;
	A2 = (srv1, m1).A1;
	B0 = (arr2, l2).B1;
	B1 = (arr2, l2).B2 + (srv2, m2).B0;
	B2 = (srv2, m2).B1;
	A0 || B0
	`
	ss := mustDerive(t, mustParse(t, src))
	if ss.Chain.NumStates() != 9 {
		t.Fatalf("states %d want 9", ss.Chain.NumStates())
	}
	pi, _ := ss.Chain.SteadyState()
	marginal := func(rho float64, lvl int) float64 {
		norm := 1 + rho + rho*rho
		return math.Pow(rho, float64(lvl)) / norm
	}
	for s := 0; s < ss.Chain.NumStates(); s++ {
		a := ss.LeafDerivative(s, 0)
		b := ss.LeafDerivative(s, 1)
		ai := int(a[1] - '0')
		bi := int(b[1] - '0')
		want := marginal(0.4, ai) * marginal(0.75, bi)
		if !numeric.AlmostEqual(pi[s], want, 1e-10) {
			t.Fatalf("pi(%s,%s) = %v want %v", a, b, pi[s], want)
		}
	}
}

func TestHidingRelabelsToTau(t *testing.T) {
	src := `
	P = (a, 1).P1;
	P1 = (b, 2).P;
	(P) / {a}
	`
	ss := mustDerive(t, mustParse(t, src))
	acts := ss.Chain.Actions()
	joined := strings.Join(acts, ",")
	if strings.Contains(joined, "a") && !strings.Contains(joined, "tau") {
		t.Fatalf("actions %v: hiding failed", acts)
	}
	found := false
	for _, a := range acts {
		if a == Tau {
			found = true
		}
		if a == "a" {
			t.Fatalf("hidden action still visible: %v", acts)
		}
	}
	if !found {
		t.Fatalf("tau not present: %v", acts)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := NewModel()
	m.Define("P", Pre("a", ActiveRate(1), Ref("P")))
	m.Define("Q", Pre("b", ActiveRate(1), Ref("Q")))
	m.System = &Coop{Left: &Leaf{Init: Ref("P")}, Right: &Leaf{Init: Ref("Q")}, Set: NewActionSet("a", "b")}
	if _, err := Derive(m, DeriveOptions{}); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected ErrDeadlock, got %v", err)
	}
	// The dynamic BFS check reports the same sentinel when the static
	// pre-flight is skipped.
	if _, err := Derive(m, DeriveOptions{SkipLint: true}); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected ErrDeadlock with SkipLint, got %v", err)
	}
}

func TestTopLevelPassiveRejected(t *testing.T) {
	m := NewModel()
	m.Define("P", Pre("a", PassiveRate(), Ref("P")))
	m.System = &Leaf{Init: Ref("P")}
	if _, err := Derive(m, DeriveOptions{}); !errors.Is(err, ErrUnsyncPassive) {
		t.Fatalf("expected ErrUnsyncPassive, got %v", err)
	}
	if _, err := Derive(m, DeriveOptions{SkipLint: true}); !errors.Is(err, ErrUnsyncPassive) {
		t.Fatalf("expected ErrUnsyncPassive with SkipLint, got %v", err)
	}
}

func TestMixedActivePassiveRejected(t *testing.T) {
	m := NewModel()
	m.Define("P", Sum(Pre("a", ActiveRate(1), Ref("P")), Pre("a", PassiveRate(), Ref("P"))))
	m.Define("Q", Pre("a", ActiveRate(1), Ref("Q")))
	m.System = &Coop{Left: &Leaf{Init: Ref("P")}, Right: &Leaf{Init: Ref("Q")}, Set: NewActionSet("a")}
	if _, err := Derive(m, DeriveOptions{}); err == nil || !strings.Contains(err.Error(), "mixes") {
		t.Fatalf("expected mixed-rate error, got %v", err)
	}
}

func TestUndefinedConstant(t *testing.T) {
	m := NewModel()
	m.Define("P", Pre("a", ActiveRate(1), Ref("Nope")))
	m.System = &Leaf{Init: Ref("P")}
	if _, err := Derive(m, DeriveOptions{}); err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Fatalf("expected undefined-constant error, got %v", err)
	}
}

func TestUnguardedRecursion(t *testing.T) {
	m := NewModel()
	m.Define("A", Ref("A"))
	m.System = &Leaf{Init: Ref("A")}
	if _, err := Derive(m, DeriveOptions{}); err == nil || !strings.Contains(err.Error(), "recursion") {
		t.Fatalf("expected recursion error, got %v", err)
	}
}

func TestMaxStatesGuard(t *testing.T) {
	src := `
	P0 = (a, 1).P1;
	P1 = (a, 1).P2 + (b, 1).P0;
	P2 = (a, 1).P3 + (b, 1).P1;
	P3 = (a, 1).P4 + (b, 1).P2;
	P4 = (b, 1).P3;
	P0
	`
	m := mustParse(t, src)
	if _, err := Derive(m, DeriveOptions{MaxStates: 2}); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("expected overflow error, got %v", err)
	}
}

func TestAnonymousContinuation(t *testing.T) {
	// Figure 4 style: Q2_1 = (repeatservice, T).(service2, T).Q2_0
	src := `
	r = 4; s = 6;
	P = (a, r).(b, s).P;
	P
	`
	ss := mustDerive(t, mustParse(t, src))
	if ss.Chain.NumStates() != 2 {
		t.Fatalf("states %d want 2", ss.Chain.NumStates())
	}
	pi, _ := ss.Chain.SteadyState()
	// Sojourns 1/4 and 1/6: pi = (3/5, 2/5) on (P, anonymous).
	i := stateOf(t, ss.Chain, "P")
	if !numeric.AlmostEqual(pi[i], 0.6, 1e-12) {
		t.Fatalf("pi=%v", pi)
	}
}

func TestParserRateArithmeticAndWeightedPassive(t *testing.T) {
	src := `
	base = 2;
	scaled = base * 3 + 1; // 7
	P = (a, scaled).P1 + (b, 2*T).P1;
	P1 = (c, (base+2)/2).P; // 2
	Q = (b, 5).Q;
	P <b> Q
	`
	m := mustParse(t, src)
	// Find the prefix rates in P's definition.
	body := m.Defs["P"]
	ch, ok := body.(*Choice)
	if !ok {
		t.Fatalf("P body %T", body)
	}
	pa := ch.Left.(*Prefix)
	pb := ch.Right.(*Prefix)
	if pa.Rate.Value != 7 {
		t.Fatalf("scaled rate %v want 7", pa.Rate.Value)
	}
	if !pb.Rate.Passive || pb.Rate.Weight != 2 {
		t.Fatalf("weighted passive wrong: %+v", pb.Rate)
	}
	p1 := m.Defs["P1"].(*Prefix)
	if p1.Rate.Value != 2 {
		t.Fatalf("arith rate %v want 2", p1.Rate.Value)
	}
	// Full derivation sanity.
	mustDerive(t, m)
}

func TestParserErrors(t *testing.T) {
	cases := map[string]string{
		"undefined rate": `P = (a, zz).P; P`,
		"negative rate":  `P = (a, 0-1).P; P`,
		"rate in system": `p = 1; P = (a, 1).P; p`,
		"trailing":       `P = (a,1).P; P extra`,
		"no system":      `P = (a,1).P;`,
		"missing semi":   `P = (a,1).P Q = (b,1).Q; P`,
		"bad char":       `P = (a,1).P; P @`,
		"empty coop set": `P = (a,1).P; P <> P`,
		"proc as rate":   `P = (a, P).P; P`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(src); err == nil {
				t.Fatalf("expected parse error for %q", src)
			}
		})
	}
}

func TestParseSystemWithNestedCoopAndParens(t *testing.T) {
	src := `
	P = (a, 1).P;
	Q = (a, T).Q2;
	Q2 = (b, 2).Q;
	R = (b, T).R;
	(P <a> Q) <b> R
	`
	ss := mustDerive(t, mustParse(t, src))
	if ss.NumLeaf != 3 {
		t.Fatalf("leaves %d want 3", ss.NumLeaf)
	}
	if err := ss.Chain.CheckIrreducible(); err != nil {
		t.Fatal(err)
	}
}

func TestRateStringForms(t *testing.T) {
	if PassiveRate().String() != "T" {
		t.Fatal("passive string")
	}
	if WeightedPassive(2).String() != "2*T" {
		t.Fatal("weighted passive string")
	}
	if ActiveRate(3.5).String() != "3.5" {
		t.Fatal("active string")
	}
}

func TestActionSetString(t *testing.T) {
	s := NewActionSet("b", "a")
	if s.String() != "{a,b}" {
		t.Fatalf("got %s", s.String())
	}
}

func TestLevelExpectation(t *testing.T) {
	src := `
	lambda = 5;
	mu = 10;
	Q0 = (arrival, lambda).Q1;
	Q1 = (arrival, lambda).Q2 + (service, T).Q0;
	Q2 = (service, T).Q1;
	S = (service, mu).S;
	Q0 <service> S
	`
	ss := mustDerive(t, mustParse(t, src))
	pi, err := ss.Chain.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	l, err := ss.LevelExpectation(pi, 0, "Q")
	if err != nil {
		t.Fatal(err)
	}
	// M/M/1/2 with rho = 0.5: L = (0 + 0.5 + 2*0.25)/1.75.
	want := (0.5 + 0.5) / 1.75
	if !numeric.AlmostEqual(l, want, 1e-10) {
		t.Fatalf("L %v want %v", l, want)
	}
	// Errors.
	if _, err := ss.LevelExpectation(pi, 5, "Q"); err == nil {
		t.Fatal("bad leaf must fail")
	}
	if _, err := ss.LevelExpectation(pi, 0, "Nope"); err == nil {
		t.Fatal("bad prefix must fail")
	}
	if _, err := ss.LevelExpectation(pi[:1], 0, "Q"); err == nil {
		t.Fatal("bad pi length must fail")
	}
}

// TestDeriveSpanAndMetrics checks derivation reports through the
// observability hooks: compile/explore child spans and the derive.*
// registry aggregates.
func TestDeriveSpanAndMetrics(t *testing.T) {
	m, err := Parse("P = (a, 2).P1;\nP1 = (b, 3).P;\nP")
	if err != nil {
		t.Fatal(err)
	}
	root := obsv.NewSpan("derive-test")
	reg := obsv.NewRegistry()
	ss, err := Derive(m, DeriveOptions{Span: root, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	rec := root.Record()
	if len(rec.Children) != 3 || rec.Children[0].Name != "lint" ||
		rec.Children[1].Name != "compile" || rec.Children[2].Name != "explore" {
		t.Fatalf("want lint+compile+explore children, got %+v", rec.Children)
	}
	if got := reg.Counter("derive.states").Value(); got != int64(ss.Chain.NumStates()) {
		t.Fatalf("derive.states = %d, want %d", got, ss.Chain.NumStates())
	}
	if got := reg.Counter("derive.transitions").Value(); got != int64(ss.Chain.NumTransitions()) {
		t.Fatalf("derive.transitions = %d, want %d", got, ss.Chain.NumTransitions())
	}
	if got := reg.Counter("derive.count").Value(); got != 1 {
		t.Fatalf("derive.count = %d, want 1", got)
	}
	if got := reg.Histogram("derive.seconds").Count(); got != 1 {
		t.Fatalf("derive.seconds count = %d, want 1", got)
	}
}
