package pepa

import (
	"fmt"
	"sort"
	"strings"
)

// Source renders the model back to parseable concrete syntax:
// definitions in sorted name order followed by the system expression.
// Parse(m.Source()) derives an identical CTMC (round-trip property,
// asserted in tests). Numeric rates are printed literally; rate
// constants from the original source are not reconstructed.
func (m *Model) Source() string {
	var sb strings.Builder
	names := make([]string, 0, len(m.Defs))
	for n := range m.Defs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "%s = %s;\n", n, printProcess(m.Defs[n], false))
	}
	if m.System != nil {
		sb.WriteString(printComposition(m.System, false))
		sb.WriteString("\n")
	}
	return sb.String()
}

// printProcess renders a sequential process; nested marks positions
// where a choice needs parentheses (prefix continuations).
func printProcess(p Process, nested bool) string {
	switch t := p.(type) {
	case *Const:
		return t.Name
	case *Prefix:
		return fmt.Sprintf("(%s, %s).%s", t.Action, rateSyntax(t.Rate), printProcess(t.Next, true))
	case *Choice:
		s := printProcess(t.Left, false) + " + " + printProcess(t.Right, false)
		if nested {
			return "(" + s + ")"
		}
		return s
	default:
		panic(fmt.Sprintf("pepa: cannot print %T", p))
	}
}

// rateSyntax renders a rate in parseable form.
func rateSyntax(r Rate) string {
	if r.Passive {
		if r.Weight == 1 { //vet:allow floatcmp: weights are set, not computed; 1 is the unweighted default
			return "T"
		}
		return fmt.Sprintf("%.17g*T", r.Weight)
	}
	return fmt.Sprintf("%.17g", r.Value)
}

// printComposition renders a composition; inner cooperations are
// parenthesised.
func printComposition(c Composition, nested bool) string {
	switch t := c.(type) {
	case *Leaf:
		// A leaf must be a constant reference to stay parseable.
		if cn, ok := t.Init.(*Const); ok {
			return cn.Name
		}
		panic("pepa: cannot print a leaf whose initial derivative is anonymous; bind it to a constant")
	case *Coop:
		op := "||"
		if len(t.Set) > 0 {
			op = "<" + strings.Join(t.Set.Names(), ", ") + ">"
		}
		s := printComposition(t.Left, true) + " " + op + " " + printComposition(t.Right, true)
		if nested {
			return "(" + s + ")"
		}
		return s
	case *Hide:
		return printComposition(t.Inner, true) + " / {" + strings.Join(t.Set.Names(), ", ") + "}"
	default:
		panic(fmt.Sprintf("pepa: cannot print %T", c))
	}
}
