// Package exp packages the paper's evaluation (Section 5 and the
// Section 7 outlook) as one runner per figure or table: Figure6
// through Figure12 for the response-time, throughput and
// optimal-timeout curves, plus tables for the state-space sizes,
// Section 4 approximations, fluid comparison, multi-node extension,
// burstiness and slowdown simulations, first-passage times,
// Erlang-vs-deterministic timer error, fairness and tagged-job
// percentiles.
//
// Every runner has the same shape — func(Params) (*obsv.Figure,
// error) — so cmd/tagseval can expose them uniformly. Params carries the
// shared parameter grid (DefaultParams for the paper's settings,
// ShortParams for quick runs) and a Workers count that is threaded
// through to the PEPA derivation and the linear solvers, so the
// heavyweight artefacts benefit from the parallel paths. obsv.Figure
// is a plot-agnostic container (named series plus notes) rendered as
// aligned text tables or CSV and recorded as is in run manifests.
// Figures 6-12 are sweep specs (specs.go) whose runs sweep.Assemble
// turns into that Figure.
//
// The runners assert nothing; the accompanying tests pin the
// qualitative claims (TAG has an interior optimal timeout, beats
// shortest-queue under high-variance demand, suffers more under
// bursty arrivals, ...) so regressions in any layer below surface
// here as failed reproductions.
package exp
