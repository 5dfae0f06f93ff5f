package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Dense is a dense row-major matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense returns a zeroed rows x cols dense matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// MulVec computes y = m x for a column vector x. No program path calls
// it: the LU round-trip test builds its right-hand sides with it.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: MulVec dimension mismatch")
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// VecMul computes y = x m for a row vector x. No program path calls
// it: it is the dense reference the CSR VecMul test compares against.
func (m *Dense) VecMul(x []float64) []float64 {
	if len(x) != m.Rows {
		panic("linalg: VecMul dimension mismatch")
	}
	y := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 { //vet:allow floatcmp: structural sparsity skip
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			y[j] += xi * v
		}
	}
	return y
}

// Transpose returns a new transposed matrix.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var sb strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%10.6g", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ErrSingular reports a (numerically) singular system.
var ErrSingular = errors.New("linalg: singular matrix")

// LUSolve solves A x = b by LU decomposition with partial pivoting.
// A is not modified.
func LUSolve(a *Dense, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: LUSolve needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d != %d", len(b), n)
	}
	lu := a.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot.
		p, maxv := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxv {
				p, maxv = i, v
			}
		}
		if maxv == 0 { //vet:allow floatcmp: exact singularity test on the pivot column
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			perm[k], perm[p] = perm[p], perm[k]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivot
			lu.Set(i, k, f)
			if f == 0 { //vet:allow floatcmp: structural sparsity skip
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= f * rk[j]
			}
		}
	}
	// Forward substitution with permuted rhs.
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[perm[i]]
		for j := 0; j < i; j++ {
			x[i] -= lu.At(i, j) * x[j]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= lu.At(i, j) * x[j]
		}
		x[i] /= lu.At(i, i)
	}
	return x, nil
}
