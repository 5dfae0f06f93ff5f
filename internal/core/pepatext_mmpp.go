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
// cooperating with the queue on arrival (the queue side is passive
// for arrival in this variant, since the rate now lives in the
// source). No program path calls it: the variants pin hashes the
// text, and the PEPA engine tests derive it.
func (m TAGExpMMPP) PEPASource() string {
	top := m.N - 1
	var sb strings.Builder

	sb.WriteString("// TAG two-node system with MMPP-2 (bursty) arrivals\n")
	fmt.Fprintf(&sb, "r1 = %g;\nr2 = %g;\ns1 = %g;\ns2 = %g;\nmu = %g;\nt = %g;\n\n",
		m.Arrivals.Rate1, m.Arrivals.Rate2, m.Arrivals.Switch1, m.Arrivals.Switch2, m.Mu, m.T)

	// Modulated source; with rate 0 in the quiet phase there is no
	// arrival activity there.
	sb.WriteString("Src0 = (arrival, r1).Src0 + (flip, s1).Src1;\n")
	if m.Arrivals.Rate2 > 0 {
		sb.WriteString("Src1 = (arrival, r2).Src1 + (flip, s2).Src0;\n\n")
	} else {
		sb.WriteString("Src1 = (flip, s2).Src0;\n\n")
	}

	// Queue 1: passive arrivals (the source is active).
	sb.WriteString("QA0 = (arrival, T).QA1;\n")
	for i := 1; i < m.K1; i++ {
		fmt.Fprintf(&sb, "QA%d = (arrival, T).QA%d + (service1, mu).QA%d + (timeout, T).QA%d + (tick1, T).QA%d;\n",
			i, i+1, i-1, i-1, i)
	}
	// Arrivals at a full queue are dropped. Without an arrival at
	// QA{K1} the source's arrival would block, wrongly pausing the
	// source; the arrival self-loop models the drop.
	fmt.Fprintf(&sb, "QA%d = (arrival, T).QA%d + (service1, mu).QA%d + (timeout, T).QA%d + (tick1, T).QA%d;\n\n",
		m.K1, m.K1, m.K1-1, m.K1-1, m.K1)
	writeTimer1(&sb, top)
	sb.WriteString("\n")
	writeExpNode2(&sb, m.K2, false)
	writeTimer2(&sb, top)

	fmt.Fprintf(&sb, "// full-queue drop: arrival self-loop at QA%d\n", m.K1)
	fmt.Fprintf(&sb, "(Src0 <arrival> (TimerA%d <timeout, service1, tick1> QA0)) <timeout> (TimerB%d <repeatservice, tick2> QB0)\n",
		top, top)
	return sb.String()
}
