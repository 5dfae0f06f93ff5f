// Package linalg supplies the numerical linear algebra behind every
// stationary and transient distribution in the repository: dense
// matrices with LU decomposition, sparse CSR matrices, and a family
// of steady-state solvers for πQ = 0, Σπ = 1.
//
// Conventions: generators Q are stored row-major with non-negative
// off-diagonals and rows summing to zero; probability vectors are
// row vectors multiplied on the left (π·Q); solutions are normalised
// to Σπ = 1.
//
// # Solvers
//
//   - SteadyStateGTH: Grassmann-Taksar-Heyman elimination. Division-
//     free subtraction makes it numerically exact to rounding; O(n³),
//     the reference for small chains and the accuracy oracle for the
//     iterative methods (agreement to 1e-10 is enforced in tests).
//     SteadyStateGTHSparse runs it on a CSR generator and reports to
//     Options.Stats.
//   - SteadyStateLU: dense LU on the augmented system; same cost
//     class as GTH, kept for cross-checking.
//   - SteadyStatePower: uniformised power iteration on sparse Q.
//     O(nnz) per step; with Options.Workers > 1 it switches to a
//     gather formulation over the transposed matrix
//     (CSR.MulVecInto), bit-identical for any worker count.
//   - SteadyStateJacobi: damped Jacobi sweep (default Omega = 0.75),
//     the other parallel iterative path. Undamped Jacobi is power
//     iteration on the embedded jump chain and diverges on periodic
//     chains (e.g. birth-death); the damping makes the chain lazy
//     and restores convergence.
//   - SteadyStateGaussSeidel (+ SOR via Options.Omega): the fastest
//     serial iteration per step; inherently sequential, so it
//     ignores Options.Workers and serves as the serial reference.
//   - SteadyStateBiCGSTAB: ILU(0)-preconditioned BiCGSTAB on the
//     reduced system — Qᵀ with state 0 (the empty system in every TAG
//     chain) pinned to π_0 = 1 — then normalised. It stops when the
//     true max|πQ| of the normalised π is at most Options.Eps, checked
//     with one SpMV on Q, and fails (no NaNs) on breakdown, stagnation
//     or a reducible chain. KrylovPattern is its per-shape structure
//     (the reduced pattern, the diagonal positions and where each
//     entry comes from in q.Val), so a Solver built on a cached
//     pattern only gathers values and factors them; internal/sweep
//     keeps one pattern per cached shape.
//   - SteadyState: the automatic cascade — GTH up to 400 states, then
//     the Krylov stage, then Gauss-Seidel, then power iteration, each
//     running only when the one before fails. A Solver runs the same
//     cascade with its cached Krylov structure and reused work
//     vectors, bit for bit like SteadyState.
//
// Non-convergence is reported as an error wrapping ErrNotConverged
// and carrying the achieved residual and iteration count, so callers
// can errors.Is it and decide whether "close enough" suffices. The
// cascade never falls back silently: each failed stage's error is
// appended to Stats.Fallbacks and sent as a warn-level
// "solve.fallback" event.
//
// Options.Start replaces the default initial iterate with a given
// vector — the stationary distribution of a neighbouring chain on the
// same state space, for continuation along a parameter axis. It is
// copied, never modified. The sweeping solvers otherwise start from
// the uniform distribution and the Krylov stage from all mass on
// state 0 (which, unlike a uniform start, keeps the error small on
// the many states of tiny probability); the Krylov stage scales a
// start so that its entry 0 is 1.
//
// Options.Stats and Options.Progress (internal/obsv) expose
// iteration counts, residual traces, the final max|πQ| and wall time;
// SteadyState fills Stats on its GTH stage too (solver "gth", no
// iterations), through SteadyStateGTHSparse, which cmd/pepa's -solver
// gth also calls. cmd/pepa's -solver/-workers/-stats flags drive them.
package linalg
