package ctmc

import (
	"cmp"
	"fmt"
	"slices"

	"pepatags/internal/linalg"
)

// GenPattern is the generator assembly: how a list of transitions
// becomes a CSR generator. It holds the sparsity pattern (row pointers
// and column indices) plus, for every coordinate entry, the value slot
// it accumulates into and the source it reads (a transition's rate or
// a row's negated outflow). Chain.Generator builds one per chain;
// sibling chains that share the transition structure — the same states
// and the same (from, to) pairs in the same order, as produced by
// instantiating one skeleton at different rates — share one and fill
// their generator values in O(nnz) instead of sorting the coordinate
// list per point.
//
// Duplicate (from, to) transitions are summed in transition order,
// left to right from zero, and a row's diagonal is its negated outflow,
// itself summed in transition order; so every fill of a pattern, and
// every pattern built from the same structure, gives the same bits.
// The tests check the assembly against a coordinate-list reference
// (linalg.COO, which sums in insertion order) on chains with runs of
// duplicate transitions, where summation order matters.
type GenPattern struct {
	n        int     // states
	from, to []int32 // endpoints of each transition (incl. self-loops)
	rowPtr   []int   // shared CSR structure
	colIdx   []int
	// One (slot, src) pair per coordinate entry, in sorted (row, col)
	// order. src >= 0 reads transition src's rate; src < 0 reads the
	// negated outflow of row -(src+1).
	slot []int32
	src  []int32
}

// NewGenPattern derives the assembly pattern of the generators of
// chains over n states whose transition k runs from[k] -> to[k]. The
// pattern is independent of the rates. It panics on an endpoint out of
// range, as Builder.Transition does; the slices are retained.
func NewGenPattern(n int, from, to []int32) *GenPattern {
	if len(from) != len(to) {
		panic(fmt.Sprintf("ctmc: %d sources for %d targets", len(from), len(to)))
	}
	p := &GenPattern{n: n, from: from, to: to}
	// A counting sort by row: next[i+1] counts row i's off-diagonal
	// entries, a prefix sum (one more slot for each row's diagonal)
	// turns next[i] into row i's first position, and each transition
	// is then dropped at its row's cursor, in transition order.
	next := make([]int32, n+1)
	for k := range from {
		f, t := from[k], to[k]
		if f < 0 || int(f) >= n || t < 0 || int(t) >= n {
			panic(fmt.Sprintf("ctmc: transition (%d -> %d) out of range", f, t))
		}
		if f != t {
			next[f+1]++
		}
	}
	var total int32
	for i := 0; i < n; i++ {
		c := next[i+1]
		next[i] = total
		if c > 0 {
			total += c + 1
		}
	}
	// The entry list holds each row's entries in a block: its
	// off-diagonal transitions in transition order, then its diagonal
	// (the negated outflow). src identifies the value source.
	type ent struct{ col, src int32 }
	ents := make([]ent, total)
	for k := range from {
		if f, t := from[k], to[k]; f != t {
			ents[next[f]] = ent{t, int32(k)}
			next[f]++
		}
	}
	p.rowPtr = make([]int, n+1)
	p.colIdx = make([]int, 0, len(ents))
	p.slot = make([]int32, len(ents))
	p.src = make([]int32, len(ents))
	var lo int32
	for i := 0; i < n; i++ {
		// next[i] is now the end of row i's transitions; a row with
		// any has its diagonal there.
		hi := next[i]
		if hi > lo {
			ents[hi] = ent{int32(i), int32(-(i + 1))}
			hi++
		}
		// A stable sort by column keeps duplicate (row, col) entries in
		// transition order, which fixes the floating-point summation
		// order of parallel transitions.
		row := ents[lo:hi]
		slices.SortStableFunc(row, func(a, b ent) int { return cmp.Compare(a.col, b.col) })
		for k := 0; k < len(row); {
			s := int32(len(p.colIdx))
			c := row[k].col
			p.colIdx = append(p.colIdx, int(c))
			for ; k < len(row) && row[k].col == c; k++ {
				p.slot[int(lo)+k] = s
				p.src[int(lo)+k] = row[k].src
			}
		}
		p.rowPtr[i+1] = len(p.colIdx)
		lo = hi
	}
	return p
}

// NNZ returns the number of stored generator entries.
func (p *GenPattern) NNZ() int { return len(p.colIdx) }

// CSR returns a generator over the pattern's shared structure with the
// values vals, which has NNZ entries.
func (p *GenPattern) CSR(vals []float64) *linalg.CSR {
	return &linalg.CSR{Rows: p.n, Cols: p.n, RowPtr: p.rowPtr, ColIdx: p.colIdx, Val: vals}
}

// Fill computes the generator values of the chain whose transition k
// has rate rate[k] into vals (NNZ entries), with out (one entry per
// state) as scratch for the row outflows; both buffers are overwritten.
// The rates are taken as given: they are validated where they are
// made.
func (p *GenPattern) Fill(rate, out, vals []float64) {
	if len(rate) != len(p.from) || len(out) != p.n || len(vals) != len(p.colIdx) {
		panic(fmt.Sprintf("ctmc: pattern of %d transitions, %d states and %d entries filled from %d rates into %d and %d values",
			len(p.from), p.n, len(p.colIdx), len(rate), len(out), len(vals)))
	}
	// Row outflows, accumulated in transition order.
	clear(out)
	for k, r := range rate {
		if f := p.from[k]; f != p.to[k] {
			out[f] += r
		}
	}
	clear(vals)
	for k, s := range p.slot {
		if src := p.src[k]; src >= 0 {
			vals[s] += rate[src]
		} else {
			vals[s] += -out[-(src + 1)]
		}
	}
}

// Apply computes c's generator over the pattern and installs it on c,
// so a chain from a shared structure skips the sort. It returns an
// error if c's transition structure does not match the pattern's. A
// chain whose generator is already computed is left untouched.
func (p *GenPattern) Apply(c *Chain) error {
	if c.gen != nil {
		return nil
	}
	if c.NumStates() != p.n {
		return fmt.Errorf("ctmc: pattern for %d states applied to chain with %d", p.n, c.NumStates())
	}
	if len(c.transitions) != len(p.from) {
		return fmt.Errorf("ctmc: pattern for %d transitions applied to chain with %d", len(p.from), len(c.transitions))
	}
	for k, t := range c.transitions {
		if int(p.from[k]) != t.From || int(p.to[k]) != t.To {
			return fmt.Errorf("ctmc: transition %d is (%d -> %d), pattern expects (%d -> %d)",
				k, t.From, t.To, p.from[k], p.to[k])
		}
	}
	p.install(c)
	return nil
}

// install fills the generator of c, whose structure is the pattern's,
// and caches it on c.
func (p *GenPattern) install(c *Chain) {
	rate := make([]float64, len(c.transitions))
	for k, t := range c.transitions {
		rate[k] = t.Rate
	}
	vals := make([]float64, len(p.colIdx))
	p.Fill(rate, make([]float64, p.n), vals)
	c.gen = p.CSR(vals)
}
