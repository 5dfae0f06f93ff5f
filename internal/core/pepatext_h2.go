package core

import (
	"fmt"
	"strings"
)

// PEPASource renders the hyper-exponential TAG model as textual PEPA —
// the paper's Figure 5, with the OCR-garbled rates restored to their
// evident intent: the head-of-line job's branch is sampled when it
// reaches the server (via probabilistic branching on arrival into the
// empty queue, and on every departure for the next head), and the
// node-2 residual branch is sampled at repeatservice with the
// re-weighted probability alpha'.
//
// Branch probabilities on passive activities are expressed as weighted
// passive rates (w*T), which the cooperation semantics turn into
// fractions of the active timer rate — exactly the alpha*t /
// (1-alpha)*t rates of Figure 5.
func (m TAGH2) PEPASource() string {
	m.validate()
	top := m.N - 1
	alpha := m.Service.Alpha[0]
	ap := m.AlphaPrime()
	var sb strings.Builder

	sb.WriteString("// TAG two-node system, Figure 5 (hyper-exponential service)\n")
	fmt.Fprintf(&sb, "lambda = %g;\nmu1 = %g;\nmu2 = %g;\nt = %g;\n", m.Lambda, m.Service.Mu[0], m.Service.Mu[1], m.T)
	fmt.Fprintf(&sb, "a = %.17g;  // alpha, short-job probability\n", alpha)
	fmt.Fprintf(&sb, "ap = %.17g; // alpha', residual mix after the timeout\n\n", ap)

	// Node-1 queue: QA{i}T{y} holds i jobs, the head of branch y. A
	// departure samples the next head's branch.
	sb.WriteString("QA0 = (arrival, a*lambda).QA1T1 + (arrival, (1-a)*lambda).QA1T2;\n")
	for y := 1; y <= 2; y++ {
		for i := 1; i <= m.K1; i++ {
			fmt.Fprintf(&sb, "QA%dT%d = ", i, y)
			if i < m.K1 {
				fmt.Fprintf(&sb, "(arrival, lambda).QA%dT%d + ", i+1, y)
			}
			fmt.Fprintf(&sb, "(tick1, T).QA%dT%d + ", i, y)
			if i == 1 {
				fmt.Fprintf(&sb, "(service1, mu%d).QA0 + (timeout, T).QA0;\n", y)
				continue
			}
			fmt.Fprintf(&sb,
				"(service1, a*mu%d).QA%dT1 + (service1, (1-a)*mu%d).QA%dT2 + (timeout, %.17g*T).QA%dT1 + (timeout, %.17g*T).QA%dT2;\n",
				y, i-1, y, i-1, alpha, i-1, 1-alpha, i-1)
		}
	}
	sb.WriteString("\n")
	writeTimer1(&sb, top)
	sb.WriteString("\n")

	// Node-2 queue: QB{i} waiting (repeat period), QBS{i}Ty residual
	// service of branch y. Per Figure 5, no tick2 during the residual
	// service.
	sb.WriteString("QB0 = (timeout, T).QB1;\n")
	for i := 1; i <= m.K2; i++ {
		next := min(i+1, m.K2) // at a full queue the timeout is a self-loop: job dropped
		fmt.Fprintf(&sb, "QB%d = (timeout, T).QB%d + (tick2, T).QB%d + (repeatservice, %.17g*T).QBS%dT1 + (repeatservice, %.17g*T).QBS%dT2;\n",
			i, next, i, ap, i, 1-ap, i)
		for y := 1; y <= 2; y++ {
			fmt.Fprintf(&sb, "QBS%dT%d = (timeout, T).QBS%dT%d + (service2, mu%d).QB%d;\n", i, y, next, y, y, i-1)
		}
	}
	sb.WriteString("\n")
	writeTimer2(&sb, top)
	writeSystem(&sb, top)
	return sb.String()
}
