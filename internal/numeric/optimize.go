package numeric

import "math"

// invphi is 1/phi, the golden ratio conjugate.
var invphi = (math.Sqrt(5) - 1) / 2

// GoldenMin minimises a unimodal function f on [a, b] by golden-section
// search and returns the minimising x. The interval is reduced until its
// width falls below tol.
func GoldenMin(f func(float64) float64, a, b, tol float64) float64 {
	if tol <= 0 {
		tol = 1e-9
	}
	if a > b {
		a, b = b, a
	}
	c := b - invphi*(b-a)
	d := a + invphi*(b-a)
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - invphi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invphi*(b-a)
			fd = f(d)
		}
	}
	return a + (b-a)/2
}

// GridMin evaluates f at points points over [a, b] (inclusive) and
// refines around the best grid point with golden-section search. It is
// robust when f is not globally unimodal but is unimodal locally, as is
// the case for TAG performance metrics over the timeout rate.
func GridMin(f func(float64) float64, a, b float64, points int, tol float64) float64 {
	if points < 3 {
		points = 3
	}
	best, fbest := a, math.Inf(1)
	step := (b - a) / float64(points-1)
	for i := 0; i < points; i++ {
		x := a + float64(i)*step
		if fx := f(x); fx < fbest {
			best, fbest = x, fx
		}
	}
	lo := math.Max(a, best-step)
	hi := math.Min(b, best+step)
	return GoldenMin(f, lo, hi, tol)
}
