package obsv

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("c") != c {
		t.Fatal("Counter must return the same instrument for the same name")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
}

// TestConcurrentWrites hammers one counter and one histogram from many goroutines; run under -race this is the data
// race check the registry's hot path claims to pass.
func TestConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hits")
			h := r.Histogram("obs")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i%100) + 0.5)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	h := r.Histogram("obs")
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	var perWorkerSum float64
	for i := 0; i < perWorker; i++ {
		perWorkerSum += float64(i%100) + 0.5
	}
	wantSum := float64(workers) * perWorkerSum
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6*wantSum {
		t.Fatalf("histogram sum = %g, want %g", got, wantSum)
	}
}

// quantileSamples fills h with n deterministic inverse-CDF samples of
// the distribution, so sample quantiles sit on the true quantiles and
// only bucketing error remains.
func quantileSamples(h *Histogram, n int, invCDF func(p float64) float64) {
	for i := 0; i < n; i++ {
		h.Observe(invCDF((float64(i) + 0.5) / float64(n)))
	}
}

func TestHistogramQuantileUniform(t *testing.T) {
	h := newHistogram()
	quantileSamples(h, 100000, func(p float64) float64 { return p }) // U(0,1)
	for _, tc := range []struct{ p, want float64 }{
		{0.50, 0.50}, {0.90, 0.90}, {0.99, 0.99},
	} {
		got := h.Quantile(tc.p)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.03 {
			t.Errorf("uniform q%.2f = %g, want %g (rel err %.3f)", tc.p, got, tc.want, rel)
		}
	}
}

func TestHistogramQuantileExponential(t *testing.T) {
	h := newHistogram()
	quantileSamples(h, 100000, func(p float64) float64 { return -math.Log(1 - p) }) // Exp(1)
	for _, tc := range []struct{ p, want float64 }{
		{0.50, math.Ln2}, {0.90, math.Log(10)}, {0.99, math.Log(100)},
	} {
		got := h.Quantile(tc.p)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.03 {
			t.Errorf("exponential q%.2f = %g, want %g (rel err %.3f)", tc.p, got, tc.want, rel)
		}
	}
	if m := h.Mean(); math.Abs(m-1) > 0.01 {
		t.Errorf("exponential mean = %g, want 1", m)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := newHistogram()
	if h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must read zero")
	}
	h.Observe(0) // lands in the lowest bucket
	h.Observe(-1)
	h.Observe(1e300) // clamped to the top bucket
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if h.Min() != -1 || h.Max() != 1e300 {
		t.Fatalf("min/max = %g/%g, want -1/1e300", h.Min(), h.Max())
	}
	// Quantiles stay inside the observed range even for clamped values.
	if q := h.Quantile(1); q != h.Max() {
		t.Fatalf("q1 = %g, want max %g", q, h.Max())
	}
	if q := h.Quantile(0); q != h.Min() {
		t.Fatalf("q0 = %g, want min %g", q, h.Min())
	}
}

func TestSnapshotSortedAndSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.count").Add(3)
	r.Gauge("a.level").Set(7)
	r.Histogram("m.hist").Observe(2)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	var sb strings.Builder
	if err := r.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"counter", "z.count", "gauge", "a.level", "histogram", "m.hist", "p99"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, sb.String())
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&1023) + 0.25)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := newHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		x := 0.5
		for pb.Next() {
			h.Observe(x)
			x += 0.25
			if x > 1000 {
				x = 0.5
			}
		}
	})
}

func TestHistogramBufferFlushMatchesDirect(t *testing.T) {
	direct := newHistogram()
	buffered := newHistogram()
	buf := buffered.Buffer()
	vals := []float64{0.001, 0.5, 1, 3.7, 42, 42, 1e6, 0}
	for _, v := range vals {
		direct.Observe(v)
		buf.Observe(v)
	}
	if buffered.Count() != 0 {
		t.Fatal("buffer leaked observations before Flush")
	}
	buf.Flush()
	buf.Flush() // idempotent when empty
	if buffered.Count() != direct.Count() || buffered.Sum() != direct.Sum() ||
		buffered.Min() != direct.Min() || buffered.Max() != direct.Max() {
		t.Fatalf("buffered summary diverges: count %d/%d sum %v/%v min %v/%v max %v/%v",
			buffered.Count(), direct.Count(), buffered.Sum(), direct.Sum(),
			buffered.Min(), direct.Min(), buffered.Max(), direct.Max())
	}
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		if buffered.Quantile(p) != direct.Quantile(p) {
			t.Fatalf("p%v: buffered %v != direct %v", p*100, buffered.Quantile(p), direct.Quantile(p))
		}
	}
	// A second batch through the same buffer keeps accumulating.
	buf.Observe(7)
	direct.Observe(7)
	buf.Flush()
	if buffered.Count() != direct.Count() || buffered.Sum() != direct.Sum() {
		t.Fatal("second flush diverges")
	}
}

func BenchmarkHistogramBufferObserve(b *testing.B) {
	buf := newHistogram().Buffer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Observe(float64(i%1000) * 0.001)
	}
}
