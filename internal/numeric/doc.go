// Package numeric collects the small numerical routines the rest of
// the repository leans on: root finding (Brent, with Bisect as its
// test reference) for the balance equations of Section 4; scalar
// minimisation (GoldenMin, GridMin) for optimal-timeout searches over
// continuous rates; and compensated summation (KahanSum, Accumulator)
// plus vector helpers (Normalize, Linspace) used by the linear
// solvers, and the comparisons the tests share (MaxAbsDiff,
// AlmostEqual).
//
// Everything here is dependency-free and deterministic; keeping the
// optimisers and compensated sums in one place means the analytical
// packages (internal/approx, internal/linalg) and the experiment
// runners share identical numerics.
package numeric
