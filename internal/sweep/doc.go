// Package sweep is the batch evaluation engine: it expands a
// declarative spec into a list of parameter points, fans the points
// over a worker pool, and journals one result row per point so an
// interrupted sweep resumes exactly where it stopped.
//
// # Specs
//
// A Spec (pepatags/sweep-spec/v1) is plain JSON: grid groups (a
// template Point plus Axes whose cartesian product generates concrete
// points), literal points, and an optional FigureSpec that maps result
// rows onto table columns and notes. The specs behind the paper
// figures live in internal/exp (specs.go) and double as templates:
// `tagseval -spec-dump figure8` prints one, `tagseval -sweep f.json`
// runs an edited copy. docs/SWEEPS.md is the cookbook.
//
// # Content-addressed caching
//
// The reachable state space and symbolic transition structure of a TAG
// model are a pure function of its core.Shape — rates only scale edge
// weights. Cache therefore keys derived skeletons, sparse-generator
// assembly patterns (ctmc.GenPattern) and the solver's Krylov
// structure (linalg.KrylovPattern) by Shape.Key(), the SHA-256 of the
// canonical shape encoding: points that differ only in rates share one
// BFS derivation, one generator-assembly sort and one symbolic solver
// set-up. A solve of a cached shape builds no chain: it pays a rate
// fill (O(transitions)), a generator value fill (O(nnz)) into buffers
// the shape's pool reuses, a numeric ILU(0) refactorisation and the
// solve, and reads the measures from the skeleton's per-state vectors.
// Solves through the cache return exactly what linalg.SteadyState
// returns on the built chain's generator, and the measures are the
// ones MeasuresFrom reads off that chain, bit for bit
// (TestChainFreeSolveMatchesChain). The skeleton property tests assert
// the key collides exactly when the derived structures are identical,
// so cached sweeps reproduce direct tables byte for byte.
//
// # Continuation along the timeout axis
//
// An opt-t search solves one shape at every integer timeout in its
// range. Its evaluator solves each chain from a start predicted from
// the search's earlier solves (linalg.Options.Start): the quadratic
// extrapolation of the last three stationary distributions along an
// equally spaced run of timeouts, else the last one, which for the
// neighbouring timeout is already close and saves solver iterations.
// Warm and cold solves agree to solver tolerance (1e-8
// relative on the Figure-8 grid, TestContinuationAccuracy), not bit
// for bit, and the start never crosses points: a row stays a pure
// function of its point, whatever the worker count or point order.
// Single tagexp/tagh2 points are cold solves.
//
// # Journal and resume
//
// The journal (pepatags/sweep-journal/v1) is JSONL: a header line
// carrying the spec's content hash, then one row per completed point
// in point order. Workers finish out of order; a reorder buffer holds
// rows until their predecessors are written, and the header carries no
// timestamps, so the journal bytes are a pure function of the spec —
// independent of worker count, scheduling, and interruptions. A kill
// at any instant leaves a header plus a clean row prefix (at worst a
// partial trailing line, which resume truncates). Resume validates the
// header's spec hash — editing the spec between runs fails loudly
// instead of mixing incompatible rows — loads the completed rows, and
// solves only the remainder; the resumed journal is byte-identical to
// an uninterrupted run's. docs/MANIFEST.md and DESIGN.md describe the
// formats in detail.
//
// # Observability
//
// Run threads an optional obsv.Registry (sweep.points_total,
// sweep.points_resumed, sweep.points_done, sweep.cache_hits,
// sweep.cache_misses counters and the sweep.point_seconds histogram)
// and an obsv.Span (children "expand", "journal", "solve") through the
// run; cmd/tagseval records both in the run manifest's sweep section.
package sweep
