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
// or interning; the label→index map is only materialised if
// StateIndex is ever called. internal/pepa's integer-coded deriver
// uses NewChain to assemble chains without a per-state interning pass.
// Either way, Chain offers:
//
//   - Generator: the infinitesimal generator Q as a sparse CSR matrix
//     (internal/linalg), rows summing to zero;
//   - SteadyState: πQ = 0, Σπ = 1, via the solver
//     cascade in internal/linalg (GTH for small chains, then
//     ILU(0)-preconditioned BiCGSTAB, Gauss–Seidel and power iteration
//     for large ones);
//   - reward extraction: Expectation, Probability and
//     ActionThroughput, the building blocks for the paper's mean
//     queue lengths, loss probabilities and throughputs;
//   - Transient / TransientWith (transient.go): uniformised
//     transient probabilities π(t), with a row-partitioned parallel
//     matrix-vector path when workers > 1, used by the
//     first-passage and tagged-job analyses.
//
// CheckIrreducible guards against modelling slips that would make
// the stationary equations singular in surprising ways.
package ctmc
