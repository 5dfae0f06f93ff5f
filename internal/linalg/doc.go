// Package linalg supplies the numerical linear algebra behind every
// stationary and transient distribution in the repository: dense
// matrices with LU decomposition, sparse CSR matrices, a family of
// steady-state solvers for πQ = 0, Σπ = 1, and the sparse linear solve
// behind first-passage analysis.
//
// Conventions: generators Q are stored row-major with non-negative
// off-diagonals and rows summing to zero; probability vectors are
// row vectors multiplied on the left (π·Q); solutions are normalised
// to Σπ = 1.
//
// # Solvers
//
//   - SteadyStateGTH: Grassmann-Taksar-Heyman elimination. Division-
//     free subtraction makes it numerically exact to rounding; the
//     reference for small chains and the accuracy oracle for the
//     iterative methods (agreement to 1e-10 is enforced in tests). It
//     skips the zero entries of each pivot row and column, so its cost
//     is O(n²) for scanning plus one multiply-add per nonzero pair of
//     pivot column and pivot row — set by the fill of the
//     elimination, O(n³) only when the factor is dense — with π bit
//     for bit that of the full dense elimination. A NaN or infinite
//     rate is an error. SteadyStateGTHSparse runs it on a CSR
//     generator, in a work matrix from a pool that holds only
//     matrices of up to DenseCutoff states, and reports to
//     Options.Stats.
//   - SteadyStateLU: dense LU on the augmented system, O(n³); kept
//     for cross-checking.
//   - SteadyStatePower: uniformised power iteration on sparse Q,
//     O(nnz) per step; the cascade's last stage.
//   - SteadyStateGaussSeidel: Gauss-Seidel sweeps, fewer than power
//     iteration needs; the cascade's fallback for the Krylov stage.
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
//     Each BiCGSTAB iteration makes one pass over memory per sparse
//     sweep: the updates p = r + β(p − ωv) and s = r − αv are formed
//     row by row inside the forward ILU(0) sweeps that precondition
//     them, and ‖t‖² is summed inside the SpMV that computes t, beside
//     (s, t). Every fused value takes the same floating-point
//     operations in the same order as a separate loop would, so π and
//     the iteration counts are bit-identical to the unfused loops
//     (internal/sweep pins them in a golden on amd64, where Go never
//     fuses a multiply and an add).
//   - SteadyState: the automatic cascade — GTH up to DenseCutoff (400)
//     states, then the Krylov stage, then Gauss-Seidel, then power
//     iteration, each running only when the one before fails. A Solver
//     runs the same cascade with its cached Krylov structure and
//     reused work vectors, bit for bit like SteadyState.
//   - SolveBiCGSTAB: the Krylov stage's kernel on a general A x = b
//     whose −A is a nonsingular M-matrix, as in the first-passage
//     systems of internal/ctmc, which send systems of up to
//     DenseCutoff unknowns to LUSolve and larger ones here. It stops
//     when max|b − Ax| <= 1e-13·(‖A‖∞·max|x| + max|b|), checked with
//     one SpMV.
//
// All the solvers are serial. Non-convergence is reported as an error
// wrapping ErrNotConverged and carrying the achieved residual and
// iteration count, so callers can errors.Is it and decide whether
// "close enough" suffices. The cascade never falls back silently:
// each failed stage's error is appended to Stats.Fallbacks and sent as
// a warn-level "solve.fallback" event.
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
// gth also calls. cmd/pepa's -solver and -stats flags drive them.
package linalg
