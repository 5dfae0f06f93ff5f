package numeric

import "math"

// KahanSum sums xs with Kahan–Babuška compensated summation, reducing
// round-off when accumulating many terms of varying magnitude (e.g.
// stationary probabilities across thousands of states).
func KahanSum(xs []float64) float64 {
	var sum, c float64
	for _, x := range xs {
		t := sum + x
		if math.Abs(sum) >= math.Abs(x) {
			c += (sum - t) + x
		} else {
			c += (x - t) + sum
		}
		sum = t
	}
	return sum + c
}

// Accumulator performs running compensated summation.
type Accumulator struct {
	sum, c float64
}

// Add accumulates x.
func (a *Accumulator) Add(x float64) {
	t := a.sum + x
	if math.Abs(a.sum) >= math.Abs(x) {
		a.c += (a.sum - t) + x
	} else {
		a.c += (x - t) + a.sum
	}
	a.sum = t
}

// Sum returns the compensated total.
func (a *Accumulator) Sum() float64 { return a.sum + a.c }

// MaxAbsDiff returns the l∞ distance between two equal-length vectors.
// No program path calls it: the solver, chain and queueing tests
// compare distributions with it.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("numeric: MaxAbsDiff length mismatch")
	}
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Normalize scales xs in place so that it sums to 1 and returns the
// original sum. If the sum is zero or non-finite it leaves xs unchanged
// and returns the sum.
func Normalize(xs []float64) float64 {
	s := KahanSum(xs)
	if s == 0 || math.IsNaN(s) || math.IsInf(s, 0) { //vet:allow floatcmp: an exactly-zero sum cannot be normalised
		return s
	}
	for i := range xs {
		xs[i] /= s
	}
	return s
}

// Linspace returns n evenly spaced points from a to b inclusive.
func Linspace(a, b float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{a}
	}
	out := make([]float64, n)
	step := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*step
	}
	out[n-1] = b
	return out
}

// AlmostEqual reports |a-b| <= tol*(1+|a|+|b|), a scale-aware comparison.
// No program path calls it: it is the tolerance check the tests of most
// packages share.
func AlmostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}
