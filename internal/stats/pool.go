package stats

import (
	"fmt"
	"math"
	"sort"
)

// Pooled is the independent-replications estimate of a mean: the grand
// mean over per-replication means, with a Student-t confidence interval
// whose degrees of freedom are the replication count minus one. This is
// the standard way to get rigorous intervals from parallel simulation
// replications — within-replication autocorrelation never enters,
// because each replication contributes a single (independent) mean.
type Pooled struct {
	Reps      int     // replications pooled
	Mean      float64 // grand mean of the replication means
	StdErr    float64 // standard error across replications
	HalfWidth float64 // 95% Student-t half-width (0 when Reps < 2)
}

// String renders "mean ± hw (r=reps)".
func (p Pooled) String() string {
	return fmt.Sprintf("%.6g ± %.2g (r=%d)", p.Mean, p.HalfWidth, p.Reps)
}

// PoolMeans pools per-replication means into a Pooled estimate. The
// result is bit-identical under any permutation of the input: means are
// sorted into a canonical order before any floating-point accumulation,
// so the replication scheduling order (worker count, completion order)
// can never leak into the reported interval.
func PoolMeans(means []float64) (Pooled, error) {
	if len(means) == 0 {
		return Pooled{}, fmt.Errorf("stats: no replication means to pool")
	}
	canon := make([]float64, len(means))
	copy(canon, means)
	sort.Float64s(canon)

	n := float64(len(canon))
	var sum float64
	for _, m := range canon {
		sum += m
	}
	mean := sum / n

	p := Pooled{Reps: len(canon), Mean: mean}
	if len(canon) < 2 {
		return p, nil
	}
	var ss float64
	for _, m := range canon {
		d := m - mean
		ss += d * d
	}
	p.StdErr = math.Sqrt(ss / (n - 1) / n)
	p.HalfWidth = TQuantile975(len(canon)-1) * p.StdErr
	return p, nil
}

// tTable975 holds the 0.975 quantile of Student's t distribution for
// 1..30 degrees of freedom (Abramowitz & Stegun table 26.10).
var tTable975 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TQuantile975 returns the 0.975 quantile of Student's t distribution
// with df degrees of freedom (the multiplier for a two-sided 95%
// interval), falling back to the normal quantile beyond the table.
func TQuantile975(df int) float64 {
	if df < 1 {
		return math.Inf(1)
	}
	if df <= len(tTable975) {
		return tTable975[df-1]
	}
	return 1.959963984540054
}
