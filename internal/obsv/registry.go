package obsv

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; Add/Inc are safe for concurrent callers and never
// allocate, so counters can sit directly on hot paths (the simulator
// bumps one per event).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be negative only to correct an overcount; counters
// are conventionally monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-written level (queue length, frontier size). The
// zero value reads 0; Set/Add are safe for concurrent callers and
// never allocate.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores x.
func (g *Gauge) Set(x float64) { g.bits.Store(math.Float64bits(x)) }

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram layout: log-spaced buckets with histBucketsPerOctave
// buckets per power of two, covering 2^histMinExp (~9e-10) to
// 2^histMaxExp (~1.7e10). Each octave is subdivided linearly by the
// top five mantissa bits, so bucketing is pure bit arithmetic (no log
// call on the observe path) and quantile estimates carry at most
// ~1.6% relative error from bucketing. The whole table is 2048 int64s
// (16 KiB) per histogram.
const (
	histBucketsPerOctave = 32
	histMinExp           = -30
	histMaxExp           = 34
	histNumBuckets       = (histMaxExp - histMinExp) * histBucketsPerOctave
)

// Histogram is a streaming log-bucketed histogram for non-negative
// observations (durations, queue lengths, response times). Observe is
// lock-free, allocation-free and safe for concurrent writers: every
// update is a handful of atomic operations. Zero, negative and NaN
// observations land in the lowest bucket.
//
// Quantile reads are approximate in two ways: values are resolved to
// bucket midpoints (≤ ~1.6% relative error), and a read concurrent
// with writers sees a slightly torn snapshot. Both are fine for the
// run summaries and manifests this backs.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // +Inf until the first observation
	maxBits atomic.Uint64 // -Inf until the first observation
	buckets [histNumBuckets]atomic.Int64
}

// newHistogram sets the min/max sentinels.
func newHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex maps an observation to its bucket: the IEEE 754
// exponent picks the octave and the top five mantissa bits pick the
// linear sub-bucket, so the hot path is two shifts and a mask.
func bucketIndex(x float64) int {
	if !(x > 0) { // zero, negative, NaN
		return 0
	}
	bits := math.Float64bits(x)
	exp := int(bits>>52) - 1023 // subnormals land below histMinExp
	sub := int(bits >> (52 - 5) & (histBucketsPerOctave - 1))
	i := (exp-histMinExp)*histBucketsPerOctave + sub
	if i < 0 {
		return 0
	}
	if i >= histNumBuckets {
		return histNumBuckets - 1
	}
	return i
}

// bucketMid is the midpoint of bucket i — the value reported for
// quantiles resolved to that bucket. Bucket i spans
// [2^e·(1+j/32), 2^e·(1+(j+1)/32)) for e = histMinExp + i/32,
// j = i mod 32.
func bucketMid(i int) float64 {
	e := histMinExp + i/histBucketsPerOctave
	j := i % histBucketsPerOctave
	return math.Ldexp(1+(float64(j)+0.5)/histBucketsPerOctave, e)
}

// bucketUpper is the exclusive upper edge of bucket i — the value the
// OpenMetrics exposition reports as the bucket's `le` bound. The
// ≤-vs-< distinction at the edge is absorbed by the bucketing error
// the histogram already carries.
func bucketUpper(i int) float64 {
	e := histMinExp + i/histBucketsPerOctave
	j := i % histBucketsPerOctave
	return math.Ldexp(1+(float64(j)+1)/histBucketsPerOctave, e)
}

// BucketCount is one occupied histogram bucket in a snapshot: Count is
// the cumulative number of observations ≤ Upper (Prometheus bucket
// semantics), so counts are monotone non-decreasing across a
// snapshot's buckets.
type BucketCount struct {
	Upper float64 `json:"le"`
	Count int64   `json:"count"`
}

// Buckets returns the occupied buckets with cumulative counts, in
// ascending bound order. Only buckets whose own count is non-zero get
// an entry, which keeps the 2048-bucket table's sparse occupancy from
// bloating expositions and manifests. A read concurrent with writers
// sees a slightly torn but monotone snapshot.
func (h *Histogram) Buckets() []BucketCount {
	var out []BucketCount
	var cum int64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		out = append(out, BucketCount{Upper: bucketUpper(i), Count: cum})
	}
	return out
}

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= x || h.minBits.CompareAndSwap(old, math.Float64bits(x)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= x || h.maxBits.CompareAndSwap(old, math.Float64bits(x)) {
			break
		}
	}
	h.buckets[bucketIndex(x)].Add(1)
}

// HistogramBuffer is a single-writer accumulator in front of a shared
// Histogram, for hot single-threaded loops (the simulator event loop)
// where even uncontended atomics are measurable. Observe is plain
// arithmetic; Flush pushes the accumulated deltas into the target with
// the usual atomic protocol and resets the buffer. A buffer must not
// be shared between goroutines, and must be flushed at least once per
// 2^31 observations (the per-bucket deltas are int32).
type HistogramBuffer struct {
	target  *Histogram
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [histNumBuckets]int32
}

// Buffer returns a new local accumulator targeting h.
func (h *Histogram) Buffer() *HistogramBuffer {
	return &HistogramBuffer{target: h, min: math.Inf(1), max: math.Inf(-1)}
}

// Observe records one observation into the buffer.
func (b *HistogramBuffer) Observe(x float64) {
	b.count++
	b.sum += x
	if x < b.min {
		b.min = x
	}
	if x > b.max {
		b.max = x
	}
	b.buckets[bucketIndex(x)]++
}

// Flush merges the buffered observations into the target histogram
// and resets the buffer. A no-op when nothing was observed.
func (b *HistogramBuffer) Flush() {
	if b.count == 0 {
		return
	}
	t := b.target
	t.count.Add(b.count)
	for {
		old := t.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + b.sum)
		if t.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := t.minBits.Load()
		if math.Float64frombits(old) <= b.min || t.minBits.CompareAndSwap(old, math.Float64bits(b.min)) {
			break
		}
	}
	for {
		old := t.maxBits.Load()
		if math.Float64frombits(old) >= b.max || t.maxBits.CompareAndSwap(old, math.Float64bits(b.max)) {
			break
		}
	}
	for i := range b.buckets {
		if n := b.buckets[i]; n != 0 {
			t.buckets[i].Add(int64(n))
			b.buckets[i] = 0
		}
	}
	b.count, b.sum = 0, 0
	b.min, b.max = math.Inf(1), math.Inf(-1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running total of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min and Max return the exact extremes (0 when empty).
func (h *Histogram) Min() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

func (h *Histogram) Max() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the p-quantile (0 <= p <= 1) from the bucket
// counts, clamped to the observed [Min, Max] range.
func (h *Histogram) Quantile(p float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min()
	}
	if p >= 1 {
		return h.Max()
	}
	rank := int64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			v := bucketMid(i)
			if lo := h.Min(); v < lo {
				v = lo
			}
			if hi := h.Max(); v > hi {
				v = hi
			}
			return v
		}
	}
	return h.Max()
}

// Registry is a named collection of counters, gauges and histograms.
// Instrument lookup (get-or-create) takes a mutex and may allocate;
// callers on hot paths resolve their instruments once up front and
// then update them lock-free. Names are flat dotted strings
// ("sim.completed", "solve.iterations"); the registry imposes no
// hierarchy beyond sorting snapshots by name.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Metric is one instrument's state at snapshot time, in the shape the
// run manifests embed.
type Metric struct {
	Name      string             `json:"name"`
	Kind      string             `json:"kind"` // "counter", "gauge" or "histogram"
	Value     float64            `json:"value,omitempty"`
	Count     int64              `json:"count,omitempty"`
	Sum       float64            `json:"sum,omitempty"`
	Min       float64            `json:"min,omitempty"`
	Max       float64            `json:"max,omitempty"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
	// Buckets carries the occupied histogram buckets (cumulative
	// counts with their upper bounds), so manifest consumers and the
	// debug endpoint see the full distribution, not just the quantile
	// point estimates.
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot returns the state of every registered instrument, sorted by
// name. Histograms report the p50/p90/p99 quantile estimates.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: "counter", Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: g.Value()})
	}
	for name, h := range r.hists {
		out = append(out, Metric{
			Name: name, Kind: "histogram",
			Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
			Quantiles: map[string]float64{
				"p50": h.Quantile(0.50),
				"p90": h.Quantile(0.90),
				"p99": h.Quantile(0.99),
			},
			Buckets: h.Buckets(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteSummary renders the snapshot as aligned text, one instrument
// per line — the format behind cmd/tagssim -stats.
func (r *Registry) WriteSummary(w io.Writer) error {
	for _, m := range r.Snapshot() {
		var err error
		switch m.Kind {
		case "counter":
			_, err = fmt.Fprintf(w, "counter    %-24s %d\n", m.Name, int64(m.Value))
		case "gauge":
			_, err = fmt.Fprintf(w, "gauge      %-24s %g\n", m.Name, m.Value)
		default:
			mean := 0.0
			if m.Count > 0 {
				mean = m.Sum / float64(m.Count)
			}
			_, err = fmt.Fprintf(w, "histogram  %-24s n=%d mean=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g\n",
				m.Name, m.Count, mean, m.Quantiles["p50"], m.Quantiles["p90"], m.Quantiles["p99"], m.Max)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
