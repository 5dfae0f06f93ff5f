package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates streaming sample statistics.
type Summary struct {
	n          int
	mean, m2   float64
	min, max   float64
	hasSamples bool
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	if !s.hasSamples || x < s.min {
		s.min = x
	}
	if !s.hasSamples || x > s.max {
		s.max = x
	}
	s.hasSamples = true
}

// N returns the sample count. No program path calls it: the
// simulator's Metrics golden pins it.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest sample (0 when empty). No program path
// calls it: the simulator's Metrics golden pins it.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample (0 when empty). No program path calls
// it: the simulator's Metrics golden pins it.
func (s *Summary) Max() float64 { return s.max }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of the 95% normal-approximation
// confidence interval for the mean.
func (s *Summary) CI95() float64 { return 1.959963984540054 * s.StdErr() }

// String renders "mean ± ci (n)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.6g ± %.2g (n=%d)", s.Mean(), s.CI95(), s.n)
}

// Percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation on the sorted copy. It returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Reservoir keeps a uniform random sample of a stream with bounded
// memory (Vitter's algorithm R), so percentile estimates stay cheap on
// long simulations.
type Reservoir struct {
	cap  int
	seen int
	data []float64
	rng  func() float64 // uniform [0,1); injectable for determinism
}

// NewReservoir allocates a reservoir of the given capacity using the
// provided uniform RNG (e.g. rand.Float64).
func NewReservoir(capacity int, rng func() float64) *Reservoir {
	if capacity < 1 || rng == nil {
		panic("stats: invalid reservoir")
	}
	return &Reservoir{cap: capacity, rng: rng}
}

// Add offers one observation to the reservoir.
func (r *Reservoir) Add(x float64) {
	r.seen++
	if len(r.data) < r.cap {
		r.data = append(r.data, x)
		return
	}
	if i := int(r.rng() * float64(r.seen)); i < r.cap {
		r.data[i] = x
	}
}

// Percentile estimates the p-quantile from the retained sample.
func (r *Reservoir) Percentile(p float64) float64 { return Percentile(r.data, p) }
