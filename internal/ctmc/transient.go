package ctmc

import (
	"errors"
	"fmt"
	"math"

	"pepatags/internal/linalg"
	"pepatags/internal/numeric"
)

// Transient computes the state distribution at time t starting from
// the initial distribution pi0, using uniformisation:
//
//	pi(t) = sum_k Poisson(Lambda t; k) * pi0 P^k,  P = I + Q/Lambda.
//
// The Poisson series is truncated once its accumulated mass is within
// eps of one.
func (c *Chain) Transient(pi0 []float64, t float64, eps float64) ([]float64, error) {
	n := c.NumStates()
	if len(pi0) != n {
		return nil, fmt.Errorf("ctmc: pi0 length %d != %d states", len(pi0), n)
	}
	if t < 0 {
		return nil, errors.New("ctmc: negative time")
	}
	if eps <= 0 {
		eps = 1e-12
	}
	out := make([]float64, n)
	if t == 0 { //vet:allow floatcmp: t is an input; t=0 is the exact boundary case
		copy(out, pi0)
		return out, nil
	}
	q := c.Generator()
	lambda := linalg.UniformizationConstant(q)
	qt := lambda * t

	v := make([]float64, n)
	copy(v, pi0)
	tmp := make([]float64, n)

	// Poisson weights computed in log space to survive large qt.
	logw := -qt // log weight for k = 0
	addWeighted := func(w float64) {
		if w <= 0 {
			return
		}
		for i := range out {
			out[i] += w * v[i]
		}
	}
	w := math.Exp(logw)
	cum := w
	addWeighted(w)
	maxK := int(qt + 40*math.Sqrt(qt) + 50)
	for k := 1; k <= maxK && cum < 1-eps; k++ {
		// v <- v P = v + (v Q)/Lambda
		q.VecMulInto(v, tmp)
		for i := range v {
			v[i] += tmp[i] / lambda
			if v[i] < 0 {
				v[i] = 0
			}
		}
		logw += math.Log(qt / float64(k))
		w = math.Exp(logw)
		cum += w
		addWeighted(w)
	}
	numeric.Normalize(out)
	return out, nil
}

// PointMass returns an initial distribution concentrated on state i.
func (c *Chain) PointMass(i int) []float64 {
	pi0 := make([]float64, c.NumStates())
	pi0[i] = 1
	return pi0
}
