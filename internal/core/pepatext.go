package core

import (
	"fmt"
	"strings"
)

// PEPASource renders the model as textual PEPA accepted by
// internal/pepa.Parse. The component structure follows the paper's
// Figure 3:
//
//	Node1 = Timer1 <timeout, service1, tick1> Q1_0
//	Node2 = Timer2 <repeatservice, tick2> Q2_0
//	System = Node1 <timeout> Node2
//
// with queue derivatives QA0..QA{K1}, QB_i / QBS_i (the paper's Q2_i /
// Q2'_i) and Erlang timers with phases()-many stages. Deriving this
// text with the PEPA engine produces a CTMC whose measures are
// identical to the direct builder — that equivalence is asserted in
// tests.
func (m TAGExp) PEPASource() string {
	m.validate()
	top := m.phases() - 1
	var sb strings.Builder
	sb.WriteString("// TAG two-node system, Figure 3 (exponential service)\n")
	fmt.Fprintf(&sb, "lambda = %g;\nmu = %g;\nt = %g;\n\n", m.Lambda, m.Mu, m.T)
	sb.WriteString("QA0 = (arrival, lambda).QA1;\n")
	for i := 1; i < m.K1; i++ {
		fmt.Fprintf(&sb, "QA%d = (arrival, lambda).QA%d + (service1, mu).QA%d + (timeout, T).QA%d + (tick1, T).QA%d;\n",
			i, i+1, i-1, i-1, i)
	}
	fmt.Fprintf(&sb, "QA%d = (service1, mu).QA%d + (timeout, T).QA%d + (tick1, T).QA%d;\n\n",
		m.K1, m.K1-1, m.K1-1, m.K1)
	writeTimer1(&sb, top)
	if top == 0 {
		// Single-phase timer: the tick action never occurs, but the
		// queue still offers it passively; add an always-blocked timer
		// participant so tick1 stays synchronised (no-op).
		sb.WriteString("// single-phase timer: no ticks\n")
	}
	sb.WriteString("\n")
	writeExpNode2(&sb, m.K2, m.tick2DuringService())
	writeTimer2(&sb, top)
	writeSystem(&sb, top)
	return sb.String()
}

// The blocks below are shared by the generators. Each writes its
// lines to sb; every block but the first timer ends with a blank line.

// writeTimer1 writes the node-1 timer: phases top..1 tick, phase 0
// fires the timeout; service1 resets it from any phase. The caller
// ends the block.
func writeTimer1(sb *strings.Builder, top int) {
	fmt.Fprintf(sb, "TimerA0 = (timeout, t).TimerA%d + (service1, T).TimerA%d;\n", top, top)
	for i := 1; i <= top; i++ {
		fmt.Fprintf(sb, "TimerA%d = (tick1, t).TimerA%d + (service1, T).TimerA%d;\n", i, i-1, top)
	}
}

// writeExpNode2 writes the exponential node-2 queue: QB{i} waits out
// the repeat period, QBS{i} serves the residual; a timeout into a full
// queue is a self-loop (the job is dropped). tick2 lets the node-2
// timer run during the residual service, as the printed Figure 3 does.
func writeExpNode2(sb *strings.Builder, k2 int, tick2 bool) {
	sb.WriteString("QB0 = (timeout, T).QB1;\n")
	for i := 1; i <= k2; i++ {
		next := min(i+1, k2)
		fmt.Fprintf(sb, "QB%d = (timeout, T).QB%d + (tick2, T).QB%d + (repeatservice, T).QBS%d;\n", i, next, i, i)
		fmt.Fprintf(sb, "QBS%d = (timeout, T).QBS%d", i, next)
		if tick2 {
			fmt.Fprintf(sb, " + (tick2, T).QBS%d", i)
		}
		fmt.Fprintf(sb, " + (service2, mu).QB%d;\n", i-1)
	}
	sb.WriteString("\n")
}

// writeTimer2 writes the node-2 timer. Unlike Timer1 (which service1
// resets), it has no service2 activity, so service2 must stay out of
// the node-2 cooperation set, where it would block forever.
func writeTimer2(sb *strings.Builder, top int) {
	fmt.Fprintf(sb, "TimerB0 = (repeatservice, t).TimerB%d;\n", top)
	for i := 1; i <= top; i++ {
		fmt.Fprintf(sb, "TimerB%d = (tick2, t).TimerB%d;\n", i, i-1)
	}
	sb.WriteString("\n")
}

// writeSystem writes the Figure 3/5 system equation.
func writeSystem(sb *strings.Builder, top int) {
	fmt.Fprintf(sb, "(TimerA%d <timeout, service1, tick1> QA0) <timeout> (TimerB%d <repeatservice, tick2> QB0)\n", top, top)
}
