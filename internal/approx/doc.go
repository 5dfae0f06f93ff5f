// Package approx implements the paper's Section 4: fixed-point
// balance approximations that predict good timeout settings without
// solving the full CTMC.
//
// The paper's central heuristic balances the rate at which node 1
// abandons jobs (timeouts firing) against the rate at which node 2
// would serve them:
//
//   - ExponentialBalanceTimeout: the exponential-timer balance point
//     (T ≈ 6.17 at mu = 10 in the paper's running example);
//   - ErlangRaceBalanceRate: the n-phase Erlang-race analogue, whose
//     effective rate t/n rises with n towards the deterministic
//     limit;
//   - DeterministicBalanceRate: that limit ("around 9" in the
//     paper).
//
// TwoStage and TwoStageH2 evaluate the two-stage tandem
// approximation of the TAG system for exponential and
// hyperexponential demand; Evaluate returns a Result with the
// approximate response time, throughput and timeout probability, and
// OptimalRate optimises a chosen Metric over the timeout rate via
// golden-section search (internal/numeric). OptimalIntegerTExp
// optimises the integer timeout against the exact models in
// internal/core, reproducing the paper's Figure 8 comparison of
// approximate and exact optima; OptimalIntegerTH2Coarse, its uncached
// H2 counterpart, is the reference the sweep engine's H2 search is
// tested against.
package approx
