// Package conform is the differential conformance harness: a seeded,
// deterministic engine that generates random model configurations and
// checks that every independent route to the paper's numbers agrees on
// them.
//
// The repo computes the same stationary quantities four ways — PEPA
// derivation (internal/pepa), direct CTMC construction (internal/core,
// internal/queueing), discrete-event simulation (internal/sim) and the
// Section 4 decomposition approximations (internal/approx) — but
// hand-written tests only pin a handful of parameter points. This
// package generates the points: random bounded-queue TAG / random /
// shortest-queue configurations and random well-formed PEPA models,
// then runs a battery of oracles over each one:
//
//   - PEPA Derive vs the direct generator: state count, graph
//     isomorphism up to state relabelling (self-loops excluded, which
//     never affect stationary behaviour), steady-state vectors within
//     1e-10 and per-action throughputs.
//   - Pairwise agreement of every stationary solver: GTH, LU, power,
//     Jacobi, Gauss-Seidel, SOR, the ILU(0)-preconditioned BiCGSTAB
//     stage and the linalg.SteadyState cascade.
//   - Uniformised transient analysis: the stationary vector is a fixed
//     point of Transient, and total-variation distance to stationarity
//     never increases with t.
//   - Simulator estimates vs analytic values inside replication-based
//     confidence intervals.
//   - Decomposition approximation vs exact within recorded error
//     bounds.
//   - Conservation laws (offered load = throughput + loss, node-2 flow
//     balance) that hold for every parameter point.
//
// On a violation the engine shrinks the configuration to a minimal
// reproducer (greedy descent over the scenario's parameters, keeping
// the same oracle failing) and writes a self-contained repro file —
// seed, scenario spec, oracle and detail — that TestRepros picks up as
// a permanent regression case once committed under testdata/repros.
//
// The engine is exposed as the tools/conform CLI (-seed, -n,
// -duration, -json) and wired into CI as a short smoke run plus a long
// nightly run. The -inject flag deliberately perturbs one backend to
// prove end to end that the harness detects a real disagreement and
// produces a shrunken repro.
package conform
