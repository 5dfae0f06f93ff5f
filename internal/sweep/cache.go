package sweep

import (
	"sync"
	"sync/atomic"

	"pepatags/internal/core"
	"pepatags/internal/ctmc"
	"pepatags/internal/linalg"
	"pepatags/internal/obsv"
)

// Cache is the content-addressed store of derived model structure.
// Keys are core.Shape.Key() — the SHA-256 of the canonical model shape
// — so two points share an entry exactly when their reachable state
// spaces and symbolic transition structures are identical (the skeleton
// property tests assert both directions). Each entry holds the derived
// skeleton, the sparse-generator assembly pattern of the shape and the
// structure of the solver's Krylov stage (linalg.KrylovPattern), so a
// cache hit pays no BFS derivation, assembly sort or symbolic set-up and
// builds no chain: it fills the per-transition rates and, in O(nnz),
// the generator values into buffers it reuses, refactors ILU(0)
// numerically, solves, and reads the measures from the rates and the
// skeleton's per-state vectors.
//
// Generators and measures produced through the cache are bit-identical
// to the ones Build and MeasuresFrom give from scratch (Build itself
// routes through the skeleton, ctmc.GenPattern is the one generator
// assembly, which Chain.Generator runs too, and one measures kernel
// serves both), so cached sweeps reproduce uncached tables byte for
// byte.
//
// A Cache is safe for concurrent use by the worker pool.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry

	hits   atomic.Int64
	misses atomic.Int64

	// observe, when set, sees the π and solver stats of every solve of
	// an opt-t search, in order; the kernel bit-pin test sets it.
	observe func(pi []float64, st obsv.SolveStats)
}

type cacheEntry struct {
	mu     sync.Mutex
	skel   *core.Skeleton
	pat    *ctmc.GenPattern
	krylov *linalg.KrylovPattern // nil when the shape's generator has none (an absorbing state)

	// idle holds the shape's solve buffers between solves, so that
	// later solves of the shape reuse them. It grows to the number of
	// concurrent solves of the shape.
	idle []*solveBuffers
}

// solveBuffers is what one solve of a shape works in: the solver with
// the Krylov stage's work vectors, the per-transition rates, the row
// outflows and the generator over the shape's pattern, whose values
// are refilled in place.
type solveBuffers struct {
	solver    *linalg.Solver
	rate, out []float64
	q         *linalg.CSR
}

// solveInto solves the entry's shape at the rates v with linalg's
// solver cascade under opts (whose Start warm-starts it) and returns
// the measures. When pi is not nil, the stationary distribution is
// copied into it (one entry per state) before the solve's buffers go
// back to the entry. Both are bit-identical to solving the
// instantiated chain's generator with linalg.SteadyState and reading
// MeasuresFrom.
func (e *cacheEntry) solveInto(v core.RateValues, opts linalg.Options, pi []float64) (core.Measures, error) {
	e.mu.Lock()
	var b *solveBuffers
	if n := len(e.idle); n > 0 {
		b, e.idle = e.idle[n-1], e.idle[:n-1]
	} else {
		b = &solveBuffers{
			solver: linalg.NewSolver(e.krylov),
			rate:   make([]float64, len(e.skel.Edges)),
			out:    make([]float64, e.skel.NumStates()),
			q:      e.pat.CSR(make([]float64, e.pat.NNZ())),
		}
	}
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.idle = append(e.idle, b)
		e.mu.Unlock()
	}()
	if err := e.skel.Rates(v, b.rate); err != nil {
		return core.Measures{}, err
	}
	e.pat.Fill(b.rate, b.out, b.q.Val)
	ans, err := b.solver.SteadyState(b.q, opts)
	if err != nil {
		return core.Measures{}, err
	}
	copy(pi, ans)
	return e.skel.Measures(ans, b.rate), nil
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// Hits and Misses report the lookup counters: a miss derives the
// skeleton, a hit reuses it.
func (c *Cache) Hits() int64   { return c.hits.Load() }
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Contains reports whether the shape key already has a derived
// skeleton — i.e. whether a solve of that shape would be a cache hit.
// An entry that was allocated but whose derivation has not finished
// yet counts as absent.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.skel != nil
}

// entry returns the model's shape entry, deriving the skeleton, the
// generator pattern and the Krylov structure on first use, and counts
// the lookup as a hit or a miss.
func (c *Cache) entry(m core.SkeletonModel) *cacheEntry {
	key := m.Shape().Key()
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.skel != nil {
		c.hits.Add(1)
		return e
	}
	c.misses.Add(1)
	skel := m.Skeleton()
	e.pat = skel.GenPattern()
	e.krylov, _ = linalg.NewKrylovPattern(e.pat.CSR(nil)) // reads the pattern, not the values
	e.skel = skel
	return e
}

// Chain returns the model's CTMC, with its generator filled over the
// shape's cached pattern, deriving the shape's structure on first use.
// Solves through the cache do not need it; it serves callers that want
// the chain itself.
func (c *Cache) Chain(m core.SkeletonModel) (*ctmc.Chain, error) {
	e := c.entry(m)
	ch, err := e.skel.Instantiate(m.RateValues())
	if err != nil {
		return nil, err
	}
	if err := e.pat.Apply(ch); err != nil {
		return nil, err
	}
	return ch, nil
}

// Analyze solves a TAG model (core.TAGExp or core.TAGH2) through the
// cache, from a cold start, with the shape's cached structure and
// buffers. The measures are bit-identical to the model's AnalyzeChain
// on the instantiated chain.
func (c *Cache) Analyze(m core.SkeletonModel) (core.Measures, error) {
	return c.entry(m).solveInto(m.RateValues(), linalg.Options{}, nil)
}
