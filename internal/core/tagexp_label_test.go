package core

import (
	"testing"

	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
)

// TestTagExpLabelRoundTrip checks parseTagExpLabel is the inverse of
// tagExpState.label: on every state of the box each shape's states
// live in, and on every label a derived chain carries.
func TestTagExpLabelRoundTrip(t *testing.T) {
	for _, m := range []TAGExp{
		NewTAGExp(5, 10, 12, 6, 10, 10),
		NewTAGExp(3, 4, 2, 2, 3, 5),
		{Lambda: 5, Mu: 10, T: 12, N: 6, K1: 10, K2: 10, LiteralFigure3: true},
	} {
		for q1 := 0; q1 <= m.K1; q1++ {
			for tm1 := 0; tm1 < m.phases(); tm1++ {
				for q2 := 0; q2 <= m.K2; q2++ {
					for _, sv2 := range []bool{false, true} {
						for tm2 := 0; tm2 < m.phases(); tm2++ {
							s := tagExpState{q1: q1, tm1: tm1, q2: q2, sv2: sv2, tm2: tm2}
							if got := parseTagExpLabel(s.label()); got != s {
								t.Fatalf("%+v: parse(%q) = %+v", m, s.label(), got)
							}
						}
					}
				}
			}
		}
		c := m.Build()
		for i := 0; i < c.NumStates(); i++ {
			if got := parseTagExpLabel(c.Label(i)).label(); got != c.Label(i) {
				t.Fatalf("%+v: label(parse(%q)) = %q", m, c.Label(i), got)
			}
		}
	}
}

func TestTagExpLabelRejectsMalformed(t *testing.T) {
	for _, lbl := range []string{
		"",
		"Q1_3.T1_2|Q2_1w.T2_",            // truncated
		"Q1_3.T1_2|Q2_1w",                // truncated before the node-2 timer
		"Q1_3.T1_2|Q2_1w.T2_0 ",          // trailing text
		"Q1_3.T1_2|Q2_1w.T2_0|",          // trailing separator
		"Q1_+3.T1_2|Q2_1w.T2_0",          // sign
		"Q1_3.T1_-2|Q2_1w.T2_0",          // negative
		"Q1_3.T1_2|Q2_a1w.T2_0",          // non-digit
		"Q1_03.T1_2|Q2_1w.T2_0",          // leading zero
		"Q1_3,T1_2|Q2_1w.T2_0",           // wrong separator
		"Q1_3.T1_2/Q2_1w.T2_0",           // wrong node separator
		"Q1_3.T1_2|Q2_1x.T2_0",           // x in place of s/w
		"Q1_3.T1_2|Q2_1.T2_0",            // derivative missing
		"Q1_99999999999.T1_2|Q2_1w.T2_0", // out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("parseTagExpLabel(%q) did not panic", lbl)
				}
			}()
			s := parseTagExpLabel(lbl)
			t.Logf("parsed %q as %+v", lbl, s)
		}()
	}
}

func TestTagExpLabelParseDoesNotAllocate(t *testing.T) {
	lbl := tagExpState{q1: 10, tm1: 5, q2: 7, sv2: true, tm2: 0}.label()
	var sink tagExpState
	if n := testing.AllocsPerRun(100, func() { sink = parseTagExpLabel(lbl) }); n != 0 {
		t.Fatalf("parseTagExpLabel allocates %v times per call", n)
	}
	if want := (tagExpState{q1: 10, tm1: 5, q2: 7, sv2: true, tm2: 0}); sink != want {
		t.Fatalf("parsed %+v, want %+v", sink, want)
	}
}

// TestMeasuresFromMatchesAnalyzeChain checks the split between solving
// and measure extraction: AnalyzeChain is a cold solve followed by
// MeasuresFrom, for TAGExp and for the product-derived TAGH2.
func TestMeasuresFromMatchesAnalyzeChain(t *testing.T) {
	exp := NewTAGExp(5, 10, 12, 6, 10, 10)
	h2 := NewTAGH2(5, dist.H2ForTAG(0.1, 0.9, 10), 12, 3, 6, 6)
	for _, m := range []interface {
		Build() *ctmc.Chain
		AnalyzeChain(*ctmc.Chain) (Measures, error)
		MeasuresFrom(*ctmc.Chain, []float64) Measures
	}{exp, h2} {
		c := m.Build()
		want, err := m.AnalyzeChain(c)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := c.SteadyState()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.MeasuresFrom(c, pi); got != want {
			t.Fatalf("%T: MeasuresFrom %+v, AnalyzeChain %+v", m, got, want)
		}
	}
}
