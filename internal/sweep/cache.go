package sweep

import (
	"sync"
	"sync/atomic"

	"pepatags/internal/core"
	"pepatags/internal/ctmc"
)

// Cache is the content-addressed store of derived model structure.
// Keys are core.Shape.Key() — the SHA-256 of the canonical model shape
// — so two points share an entry exactly when their reachable state
// spaces and symbolic transition structures are identical (the skeleton
// property tests assert both directions). Each entry holds the derived
// skeleton plus the sparse-generator assembly pattern of the shape, so
// a cache hit pays O(transitions) instantiation and O(nnz) generator
// fill instead of the BFS derivation and the COO sort.
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
	mu   sync.Mutex
	skel *core.Skeleton
	pat  *ctmc.GenPattern
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
		return nil, err
	}
	if e.pat == nil {
		e.pat = ctmc.NewGenPattern(ch)
	} else if err := e.pat.Apply(ch); err != nil {
		return nil, err
	}
	return ch, nil
}

// Analyze solves a TAG model (core.TAGExp or core.TAGH2) through the
// cache.
func (c *Cache) Analyze(m interface {
	core.SkeletonModel
	AnalyzeChain(*ctmc.Chain) (core.Measures, error)
}) (core.Measures, error) {
	ch, err := c.Chain(m)
	if err != nil {
		return core.Measures{}, err
	}
	return m.AnalyzeChain(ch)
}
