// Package obsv is the observability layer shared by the state-space
// deriver (internal/pepa), the iterative solvers (internal/linalg),
// the sweep engine (internal/sweep), the simulator (internal/sim) and
// the three CLIs. It has six parts, each usable on its own:
//
//   - Run statistics and progress callbacks. DeriveStats describes one
//     state-space derivation (filled via pepa.DeriveOptions.Stats, even
//     on failure — partial counts matter when a model blows past its
//     state cap). SolveStats describes one iterative solve, including
//     an optional residual trace. Progress/ProgressFunc is the coarse
//     callback protocol the deriver, solvers and simulator invoke so a
//     long run can be watched live without measurable overhead.
//
//   - A metrics registry (registry.go). Registry hands out named
//     Counters, Gauges and log-bucketed Histograms. Lookup takes a
//     mutex; the instruments themselves are updated with a handful of
//     atomics — allocation-free and safe under concurrent writers — so
//     they can sit directly on the simulator's per-event path and the
//     solvers' per-solve bookkeeping. Snapshot() freezes everything
//     into a sorted, JSON-ready []Metric.
//
//   - Pipeline spans (span.go). Span is a minimal tree of named timed
//     phases (parse → compile → derive → solve → measures) with a text
//     tree renderer and a Chrome trace-event JSON export for
//     chrome://tracing / Perfetto.
//
//   - A structured event log (event.go). EventLog carries leveled,
//     rate-limited events (derive.*, solve.*, sweep.*, sim.*) to an
//     optional JSON-lines sink and always into a fixed-size
//     flight-recorder ring of the most recent events, dumped on
//     failure or signal so dead runs stay diagnosable. Wait() is the
//     long-poll primitive behind the /events endpoint. All methods
//     are nil-receiver-safe, so producers thread an optional log with
//     no conditionals.
//
//   - A progress heartbeat (heartbeat.go). Heartbeat turns the
//     Progress callback stream into periodic "progress: phase=..."
//     lines with rates and ETA — the -progress flag shared by all
//     three CLIs — and mirrors each beat as a heartbeat event.
//
//   - Run manifests (manifest.go). Manifest is the machine-readable
//     record of one CLI run — schema-tagged JSON carrying the full
//     parameter set, seed, derive/solve stats, result measures,
//     artefact series, a metrics snapshot, the span tree and the
//     event-log accounting (with the flight-recorder tail and the
//     error on failed runs). The -manifest flag of cmd/pepa,
//     cmd/tagseval and cmd/tagssim writes one; tools/manifestcheck
//     validates them in CI. Figure (figure.go) is the one type of a
//     reproduced table, from sweep.Assemble and the exp runners to
//     Render, CSV and the manifest's ArtefactRecord.
//
// StartDebug (debug.go) serves the opt-in -debug-addr HTTP endpoint:
// an OpenMetrics /metrics exposition of the registry (openmetrics.go;
// ParseOpenMetrics is the round-trip parser the tests scrape it
// with), a live /events stream (long-poll JSON or SSE), pprof, expvar
// and the human-oriented /debug/metrics dump. StartTelemetry
// (cli.go) bundles all of it — event log, heartbeat, signal-dump,
// debug server, failure manifests — behind the flags the CLIs share.
// docs/OBSERVABILITY.md documents the plane end to end.
//
// obsv depends only on the standard library and is imported by the
// layers below it; it must never import any other internal package.
package obsv
