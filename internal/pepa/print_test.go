package pepa

import (
	"strings"
	"testing"

	"pepatags/internal/numeric"
)

const roundTripSrc = `
	P = (a, 2).P1 + (b, 1).P;
	P1 = (b, 0.5*T).(d, 3).P + (b, 1.5*T).P;
	Q = (b, 4).Q;
	(P <b> Q) / {d}
	`

func TestSourceRoundTrip(t *testing.T) {
	m1 := mustParse(t, roundTripSrc)
	src := m1.Source()
	m2, err := Parse(src)
	if err != nil {
		t.Fatalf("re-parse printed source: %v\n%s", err, src)
	}
	ss1 := mustDerive(t, m1)
	ss2 := mustDerive(t, m2)
	if ss1.Chain.NumStates() != ss2.Chain.NumStates() {
		t.Fatalf("states %d vs %d", ss1.Chain.NumStates(), ss2.Chain.NumStates())
	}
	pi1, err := ss1.Chain.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	pi2, err := ss2.Chain.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range ss1.Chain.Actions() {
		x1 := ss1.Chain.ActionThroughput(pi1, a)
		x2 := ss2.Chain.ActionThroughput(pi2, a)
		if !numeric.AlmostEqual(x1, x2, 1e-12) {
			t.Fatalf("throughput of %s differs: %v vs %v", a, x1, x2)
		}
	}
}

func TestSourceContainsHidingAndWeights(t *testing.T) {
	m := mustParse(t, roundTripSrc)
	src := m.Source()
	if !strings.Contains(src, "/ {d}") {
		t.Fatalf("hiding lost:\n%s", src)
	}
	if !strings.Contains(src, "*T") {
		t.Fatalf("weighted passive lost:\n%s", src)
	}
	if !strings.Contains(src, "<b>") {
		t.Fatalf("cooperation set lost:\n%s", src)
	}
}

func TestSourceAnonymousLeafPanics(t *testing.T) {
	m := NewModel()
	m.Define("P", Pre("a", ActiveRate(1), Ref("P")))
	m.System = &Leaf{Init: Pre("a", ActiveRate(1), Ref("P"))}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for anonymous leaf")
		}
	}()
	_ = m.Source()
}

func TestCheckCyclicAccepts(t *testing.T) {
	m := mustParse(t, roundTripSrc)
	if err := m.CheckCyclic(); err != nil {
		t.Fatalf("cyclic model rejected: %v", err)
	}
}

func TestCheckCyclicRejectsOneWayComponent(t *testing.T) {
	// P drifts into a sink loop that never returns to P.
	src := `
	P = (a, 1).Sink;
	Sink = (b, 1).Sink;
	P
	`
	m := mustParse(t, src)
	if err := m.CheckCyclic(); err == nil {
		t.Fatal("non-cyclic component accepted")
	}
}

func TestCheckCyclicTAGModelShape(t *testing.T) {
	// The paper's own models are cyclic; a queue fragment modelled as in
	// Figure 3 passes the syntactic check.
	src := `
	Q0 = (arrival, 5).Q1;
	Q1 = (arrival, 5).Q2 + (service, T).Q0;
	Q2 = (service, T).Q1;
	S = (service, 10).S;
	Q0 <service> S
	`
	m := mustParse(t, src)
	if err := m.CheckCyclic(); err != nil {
		t.Fatal(err)
	}
}
