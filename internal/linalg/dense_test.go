package linalg

import (
	"math"
	"testing"

	"pepatags/internal/numeric"
)

// DenseFromRows builds a Dense from a slice of equal-length rows.
func DenseFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

func TestDenseBasicOps(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 7)
	if m.At(0, 0) != 1 || m.At(1, 2) != 7 {
		t.Fatalf("At/Set mismatch: %v", m.Data)
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone is not deep")
	}
}

func TestDenseFromRowsAndString(t *testing.T) {
	m := DenseFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatalf("DenseFromRows wrong: %v", m.Data)
	}
	if s := m.String(); len(s) == 0 {
		t.Fatal("String empty")
	}
}

func TestDenseRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	DenseFromRows([][]float64{{1, 2}, {3}})
}

func TestDenseMulVec(t *testing.T) {
	m := DenseFromRows([][]float64{{1, 2}, {3, 4}})
	y := m.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec got %v", y)
	}
	x := m.VecMul([]float64{1, 1})
	if x[0] != 4 || x[1] != 6 {
		t.Fatalf("VecMul got %v", x)
	}
}

func TestTranspose(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 {
		t.Fatalf("Transpose wrong: %+v", at)
	}
}

func TestLUSolve(t *testing.T) {
	a := DenseFromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := []float64{8, -11, -3}
	x, err := LUSolve(a, b)
	if err != nil {
		t.Fatalf("LUSolve: %v", err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !numeric.AlmostEqual(x[i], want[i], 1e-12) {
			t.Fatalf("x=%v want %v", x, want)
		}
	}
	// A must be unmodified.
	if a.At(0, 0) != 2 {
		t.Fatal("LUSolve modified input")
	}
}

func TestLUSolveSingular(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := LUSolve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestLUSolveNeedsPivoting(t *testing.T) {
	// Zero top-left pivot forces a row swap.
	a := DenseFromRows([][]float64{{0, 1}, {1, 0}})
	x, err := LUSolve(a, []float64{3, 7})
	if err != nil {
		t.Fatalf("LUSolve: %v", err)
	}
	if !numeric.AlmostEqual(x[0], 7, 1e-14) || !numeric.AlmostEqual(x[1], 3, 1e-14) {
		t.Fatalf("x=%v", x)
	}
}

func TestLUSolveRandomRoundTrip(t *testing.T) {
	// Deterministic pseudo-random matrices: verify A x = b round-trips.
	rng := uint64(12345)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>33)/float64(1<<31) - 0.5
	}
	for trial := 0; trial < 25; trial++ {
		n := 2 + trial%8
		a := NewDense(n, n)
		for i := range a.Data {
			a.Data[i] = next()
		}
		// Diagonal dominance ensures solvability.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = next()
		}
		b := a.MulVec(want)
		x, err := LUSolve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d: x=%v want %v", trial, x, want)
			}
		}
	}
}
