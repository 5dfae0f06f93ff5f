package sweep

import (
	"sync"
	"sync/atomic"

	"pepatags/internal/core"
	"pepatags/internal/ctmc"
	"pepatags/internal/linalg"
)

// Cache is the content-addressed store of derived model structure.
// Keys are core.Shape.Key() — the SHA-256 of the canonical model shape
// — so two points share an entry exactly when their reachable state
// spaces and symbolic transition structures are identical (the skeleton
// property tests assert both directions). Each entry holds the derived
// skeleton, the sparse-generator assembly pattern of the shape and the
// structure of the solver's Krylov stage (linalg.KrylovPattern), so a
// cache hit pays O(transitions) instantiation, O(nnz) generator fill
// and a numeric ILU(0) factorisation instead of the BFS derivation,
// the COO sort and the symbolic set-up.
//
// Chains produced through the cache are bit-identical to the ones
// Build derives from scratch (Build itself routes through the
// skeleton, and ctmc.GenPattern replicates the exact assembly order),
// so cached sweeps reproduce uncached tables byte for byte.
//
// A Cache is safe for concurrent use by the worker pool.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	mu     sync.Mutex
	skel   *core.Skeleton
	pat    *ctmc.GenPattern
	krylov *linalg.KrylovPattern // nil when the shape's generator has none (an absorbing state)

	// idle holds the shape's linalg.Solvers between solves, so that
	// later solves of the shape reuse the Krylov stage's work vectors.
	// It grows to the number of concurrent solves of the shape.
	idle []*linalg.Solver
}

// solve runs linalg's solver cascade on q, a generator of the entry's
// shape, with the shape's Krylov structure and reused work vectors.
// The result is bit-identical to linalg.SteadyState(q, opts).
func (e *cacheEntry) solve(q *linalg.CSR, opts linalg.Options) ([]float64, error) {
	e.mu.Lock()
	var s *linalg.Solver
	if n := len(e.idle); n > 0 {
		s, e.idle = e.idle[n-1], e.idle[:n-1]
	} else {
		s = linalg.NewSolver(e.krylov)
	}
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.idle = append(e.idle, s)
		e.mu.Unlock()
	}()
	return s.SteadyState(q, opts)
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

// Shapes returns the number of distinct shapes derived so far.
func (c *Cache) Shapes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Chain returns the model's CTMC, deriving the shape's skeleton and
// generator pattern on first use and reusing them afterwards.
func (c *Cache) Chain(m core.SkeletonModel) (*ctmc.Chain, error) {
	ch, _, err := c.chain(m)
	return ch, err
}

// chain is Chain that also returns the shape's entry, whose solve uses
// the shape's cached solver structure.
func (c *Cache) chain(m core.SkeletonModel) (*ctmc.Chain, *cacheEntry, error) {
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
	if e.skel == nil {
		c.misses.Add(1)
		e.skel = m.Skeleton()
	} else {
		c.hits.Add(1)
	}
	ch, err := e.skel.Instantiate(m.RateValues())
	if err != nil {
		return nil, nil, err
	}
	if e.pat == nil {
		e.pat = ctmc.NewGenPattern(ch)
		e.krylov, _ = linalg.NewKrylovPattern(ch.Generator())
	} else if err := e.pat.Apply(ch); err != nil {
		return nil, nil, err
	}
	return ch, e, nil
}

// Analyze solves a TAG model (core.TAGExp or core.TAGH2) through the
// cache, from a cold start, with the shape's cached solver structure.
// The measures are bit-identical to the model's AnalyzeChain on the
// same chain.
func (c *Cache) Analyze(m warmModel) (core.Measures, error) {
	ch, e, err := c.chain(m)
	if err != nil {
		return core.Measures{}, err
	}
	pi, err := e.solve(ch.Generator(), linalg.Options{})
	if err != nil {
		return core.Measures{}, err
	}
	return m.MeasuresFrom(ch, pi), nil
}
