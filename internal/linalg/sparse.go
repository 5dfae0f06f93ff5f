package linalg

import (
	"fmt"
	"sort"
)

// triplet is a coordinate-format matrix entry.
type triplet struct {
	Row, Col int
	Val      float64
}

// COO is a coordinate-format sparse matrix builder. Duplicate entries
// are summed when converting to CSR, which matches the semantics of
// accumulating CTMC transition rates between the same pair of states.
// No program path calls it: ctmc.GenPattern assembles every generator.
// COO is the reference the pattern tests check that assembly against,
// and the linalg tests and benchmarks build their matrices with it.
type COO struct {
	Rows, Cols int
	entries    []triplet
}

// NewCOO returns an empty rows x cols COO builder.
func NewCOO(rows, cols int) *COO {
	return &COO{Rows: rows, Cols: cols}
}

// Add appends the entry (i, j, v). Zero values are ignored.
func (c *COO) Add(i, j int, v float64) {
	if v == 0 { //vet:allow floatcmp: exact zeros are structurally absent in COO
		return
	}
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		panic(fmt.Sprintf("linalg: COO index (%d,%d) out of range %dx%d", i, j, c.Rows, c.Cols))
	}
	c.entries = append(c.entries, triplet{i, j, v})
}

// ToCSR converts to compressed sparse row form, summing duplicates in
// insertion order: the sort by (row, col) is stable, so entries added
// at the same coordinate are added left to right in the order Add saw
// them.
func (c *COO) ToCSR() *CSR {
	ents := make([]triplet, len(c.entries))
	copy(ents, c.entries)
	sort.SliceStable(ents, func(a, b int) bool {
		if ents[a].Row != ents[b].Row {
			return ents[a].Row < ents[b].Row
		}
		return ents[a].Col < ents[b].Col
	})
	m := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int, c.Rows+1)}
	for k := 0; k < len(ents); {
		e := ents[k]
		v := e.Val
		k++
		for k < len(ents) && ents[k].Row == e.Row && ents[k].Col == e.Col {
			v += ents[k].Val
			k++
		}
		if v != 0 { //vet:allow floatcmp: drop entries that cancelled exactly
			m.ColIdx = append(m.ColIdx, e.Col)
			m.Val = append(m.Val, v)
			m.RowPtr[e.Row+1]++
		}
	}
	for i := 0; i < c.Rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// CSR is a compressed sparse row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1
	ColIdx     []int // len NNZ
	Val        []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// At returns element (i, j) with a binary search over row i. No
// program path calls it: the COO and CSR tests read entries through
// it.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	idx := sort.SearchInts(m.ColIdx[lo:hi], j) + lo
	if idx < hi && m.ColIdx[idx] == j {
		return m.Val[idx]
	}
	return 0
}

// RangeRow calls f(j, v) for each stored entry of row i.
func (m *CSR) RangeRow(i int, f func(j int, v float64)) {
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		f(m.ColIdx[k], m.Val[k])
	}
}

// MulVec computes y = m x (column vector). No program path calls it:
// the linear-solve tests check their residuals b − A x with it.
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: CSR MulVec dimension mismatch")
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
	return y
}

// VecMul computes y = x m (row vector). Result has length Cols.
func (m *CSR) VecMul(x []float64) []float64 {
	if len(x) != m.Rows {
		panic("linalg: CSR VecMul dimension mismatch")
	}
	y := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 { //vet:allow floatcmp: structural sparsity skip
			continue
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			y[m.ColIdx[k]] += xi * m.Val[k]
		}
	}
	return y
}

// VecMulInto is VecMul writing into a caller-provided buffer, avoiding
// allocation in iterative solvers. y must have length Cols.
func (m *CSR) VecMulInto(x, y []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic("linalg: CSR VecMulInto dimension mismatch")
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 { //vet:allow floatcmp: structural sparsity skip
			continue
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			y[m.ColIdx[k]] += xi * m.Val[k]
		}
	}
}

// ToDense expands to a dense matrix (testing and small systems only).
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.Rows, m.Cols)
	m.scatter(d)
	return d
}

// scatter writes m's stored entries into d, a zero matrix of m's
// dimensions.
func (m *CSR) scatter(d *Dense) {
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Set(i, m.ColIdx[k], m.Val[k])
		}
	}
}

// Transpose returns the CSR transpose (i.e. CSC of the original viewed
// as CSR), used by Gauss–Seidel which needs column access to Q.
func (m *CSR) Transpose() *CSR {
	t := &CSR{Rows: m.Cols, Cols: m.Rows, RowPtr: make([]int, m.Cols+1)}
	t.ColIdx = make([]int, m.NNZ())
	t.Val = make([]float64, m.NNZ())
	// Count entries per column.
	for _, j := range m.ColIdx {
		t.RowPtr[j+1]++
	}
	for j := 0; j < t.Rows; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	next := make([]int, t.Rows)
	copy(next, t.RowPtr[:t.Rows])
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			p := next[j]
			t.ColIdx[p] = i
			t.Val[p] = m.Val[k]
			next[j]++
		}
	}
	return t
}
