package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned when a bracketing interval does not actually
// bracket a root (f(a) and f(b) have the same sign).
var ErrNoBracket = errors.New("numeric: interval does not bracket a root")

// ErrMaxIterations is returned when an iterative routine fails to reach
// the requested tolerance within its iteration budget.
var ErrMaxIterations = errors.New("numeric: maximum iterations exceeded")

// DefaultTol is the default absolute tolerance for root finding and
// minimisation routines.
const DefaultTol = 1e-12

// maxRootIter bounds iteration counts in Bisect and Brent. Both methods
// halve (at worst) the interval each step, so 200 iterations resolve any
// double-precision interval.
const maxRootIter = 200

// Bisect finds a root of f in [a, b] by bisection. f(a) and f(b) must
// have opposite signs. The returned x satisfies |f(x)| small or the
// final interval width is below tol. No program path calls it: it is
// the reference the Brent tests compare against.
func Bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
	fa, fb := f(a), f(b)
	if fa == 0 { //vet:allow floatcmp: exact root hit short-circuits
		return a, nil
	}
	if fb == 0 { //vet:allow floatcmp: exact root hit short-circuits
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	for i := 0; i < maxRootIter; i++ {
		m := a + (b-a)/2
		fm := f(m)
		if fm == 0 || (b-a)/2 < tol { //vet:allow floatcmp: exact root hit short-circuits
			return m, nil
		}
		if math.Signbit(fm) == math.Signbit(fa) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return a + (b-a)/2, ErrMaxIterations
}

// Brent finds a root of f in [a, b] using Brent's method (inverse
// quadratic interpolation with bisection fallback). f(a) and f(b) must
// have opposite signs.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
	fa, fb := f(a), f(b)
	if fa == 0 { //vet:allow floatcmp: exact root hit short-circuits
		return a, nil
	}
	if fb == 0 { //vet:allow floatcmp: exact root hit short-circuits
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	// Ensure |f(b)| <= |f(a)| so b is the best estimate.
	if math.Abs(fa) < math.Abs(fb) {
		a, b = b, a
		fa, fb = fb, fa
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for i := 0; i < maxRootIter; i++ {
		if fb == 0 || math.Abs(b-a) < tol { //vet:allow floatcmp: exact root hit short-circuits
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc { //vet:allow floatcmp: guards the divided differences against identical ordinates
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo, hi := (3*a+b)/4, b
		if lo > hi {
			lo, hi = hi, lo
		}
		cond := s < lo || s > hi ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if cond {
			s = a + (b-a)/2
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d = c
		c, fc = b, fb
		if math.Signbit(fa) != math.Signbit(fs) {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b = b, a
			fa, fb = fb, fa
		}
	}
	return b, ErrMaxIterations
}
