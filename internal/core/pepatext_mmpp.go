package core

import (
	"fmt"
	"strings"
)

// PEPASource renders the bursty-arrival TAG model as textual PEPA,
// expressing the Section 7 scenario in the paper's own formalism: the
// Poisson source is replaced by a two-phase Markov-modulated source
// component
//
//	Src0 = (arrival, r1).Src0 + (flip, s1).Src1;
//	Src1 = (arrival, r2).Src1 + (flip, s2).Src0;
//
// cooperating with the queue on arrival (the queue side is passive for
// arrival in this variant, since the rate now lives in the source).
func (m TAGExpMMPP) PEPASource() string {
	top := m.N - 1
	var sb strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&sb, format, args...) }

	w("// TAG two-node system with MMPP-2 (bursty) arrivals\n")
	w("r1 = %g;\nr2 = %g;\ns1 = %g;\ns2 = %g;\nmu = %g;\nt = %g;\n\n",
		m.Arrivals.Rate1, m.Arrivals.Rate2, m.Arrivals.Switch1, m.Arrivals.Switch2, m.Mu, m.T)

	// Modulated source.
	if m.Arrivals.Rate2 > 0 {
		w("Src0 = (arrival, r1).Src0 + (flip, s1).Src1;\n")
		w("Src1 = (arrival, r2).Src1 + (flip, s2).Src0;\n\n")
	} else {
		// Rate 0 in the quiet phase: no arrival activity there.
		w("Src0 = (arrival, r1).Src0 + (flip, s1).Src1;\n")
		w("Src1 = (flip, s2).Src0;\n\n")
	}

	// Queue 1: passive arrivals (the source is active).
	w("QA0 = (arrival, T).QA1;\n")
	for i := 1; i < m.K1; i++ {
		w("QA%d = (arrival, T).QA%d + (service1, mu).QA%d + (timeout, T).QA%d + (tick1, T).QA%d;\n",
			i, i+1, i-1, i-1, i)
	}
	// Arrivals at a full queue are dropped. Without an arrival at
	// QA{K1} the source's arrival would block, wrongly pausing the
	// source; the arrival self-loop models the drop.
	w("QA%d = (arrival, T).QA%d + (service1, mu).QA%d + (timeout, T).QA%d + (tick1, T).QA%d;\n\n",
		m.K1, m.K1, m.K1-1, m.K1-1, m.K1)

	w("TimerA0 = (timeout, t).TimerA%d + (service1, T).TimerA%d;\n", top, top)
	for i := 1; i <= top; i++ {
		w("TimerA%d = (tick1, t).TimerA%d + (service1, T).TimerA%d;\n", i, i-1, top)
	}
	w("\n")

	w("QB0 = (timeout, T).QB1;\n")
	for i := 1; i < m.K2; i++ {
		w("QB%d = (timeout, T).QB%d + (tick2, T).QB%d + (repeatservice, T).QBS%d;\n", i, i+1, i, i)
		w("QBS%d = (timeout, T).QBS%d + (service2, mu).QB%d;\n", i, i+1, i-1)
	}
	w("QB%d = (timeout, T).QB%d + (tick2, T).QB%d + (repeatservice, T).QBS%d;\n", m.K2, m.K2, m.K2, m.K2)
	w("QBS%d = (timeout, T).QBS%d + (service2, mu).QB%d;\n\n", m.K2, m.K2, m.K2-1)

	w("TimerB0 = (repeatservice, t).TimerB%d;\n", top)
	for i := 1; i <= top; i++ {
		w("TimerB%d = (tick2, t).TimerB%d;\n", i, i-1)
	}
	w("\n")

	w("// full-queue drop: arrival self-loop at QA%d\n", m.K1)
	w("(Src0 <arrival> (TimerA%d <timeout, service1, tick1> QA0)) <timeout> (TimerB%d <repeatservice, tick2> QB0)\n",
		top, top)
	return sb.String()
}
