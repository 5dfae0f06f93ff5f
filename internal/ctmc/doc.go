// Package ctmc represents labelled continuous-time Markov chains —
// the common currency every analytical path in this repository
// flows through. The paper's models (Section 3) are solved by
// building their CTMC, extracting the generator and computing the
// stationary distribution; both the hand-built state spaces of
// internal/core and the PEPA-derived ones of internal/pepa land here.
//
// Chains are constructed two ways. Builder interns state labels
// (string → dense index) and collects rate-labelled transitions
// incrementally; Build freezes the chain. NewChain is the streaming
// counterpart for producers that number states themselves — it adopts
// a dense label slice and a prebuilt transition list without copying
// or interning. internal/pepa's integer-coded deriver uses NewChain to
// assemble chains without a per-state interning pass, and a core
// skeleton's instances share its label slice through it. A chain maps
// an index to its label and keeps no index from labels back.
// Either way, Chain offers:
//
//   - Generator: the infinitesimal generator Q as a sparse CSR matrix
//     (internal/linalg), rows summing to zero, assembled by GenPattern
//     (pattern.go) — the one assembly, which buckets the entries by row
//     in linear time, sums parallel transitions in transition order,
//     and which the sweep cache also shares across the sibling chains
//     of a shape;
//   - SteadyState: πQ = 0, Σπ = 1, via the solver
//     cascade in internal/linalg (GTH for small chains, then
//     ILU(0)-preconditioned BiCGSTAB, Gauss–Seidel and power iteration
//     for large ones);
//   - reward extraction: Expectation, Probability and
//     ActionThroughput, the building blocks for the paper's mean
//     queue lengths, loss probabilities and throughputs;
//   - Transient (transient.go): uniformised transient probabilities
//     π(t), used by the tagged-job response-time CDF;
//   - first-passage analysis (passage.go): expected hitting times and
//     hitting probabilities, from linear systems sliced out of the
//     generator's rows and solved by dense LU up
//     to linalg.DenseCutoff unknowns and by the ILU(0)-preconditioned
//     BiCGSTAB kernel (linalg.SolveBiCGSTAB) above it, after a check
//     that every state can reach the boundary.
//
// CheckIrreducible guards against modelling slips that would make
// the stationary equations singular in surprising ways.
package ctmc
