// Package serve is the pepad daemon core: a long-running HTTP/JSON
// service that accepts sweep specs (pepatags/sweep-spec/v1, the same
// documents `tagseval -sweep` runs), executes them on a bounded job
// pool over one shared content-addressed state-space cache, and
// streams per-job progress over the obsv event machinery. cmd/pepad
// is the thin binary around it; docs/PEPAD.md is the API reference.
//
// # Jobs
//
// POST /v1/jobs admits a spec and returns 202 with a job ID. A Job
// moves queued -> running -> done/failed/canceled; every admitted job
// takes exactly one pass through the worker pool and, when a manifest
// directory is configured, leaves exactly one run manifest
// (pepatags/run-manifest/v1, tool "pepad") — a failure manifest with
// the flight-recorder tail when it was canceled or died. Results are
// served in three representations: the raw journal rows as JSON, and
// the assembled figure as text table or CSV, both byte-identical to
// the `tagseval -sweep` CLI output for the same spec (the handler
// renders the obsv.Figure that sweep.Assemble returns, as the CLI
// does, and the engine's determinism guarantees do the rest).
//
// # Event scoping
//
// Each job carries its own obsv.EventLog: the engine's sweep.start /
// sweep.point / sweep.done events land in the job's log and are
// served on GET /v1/jobs/{id}/events by obsv.ServeEvents — SSE with
// Last-Event-ID resume for `Accept: text/event-stream` clients,
// bounded long-poll JSON otherwise. The stream ends when the job
// reaches a final state and its log closes. Server-level events
// (submissions, rejections, drain) go to a separate log on
// /v1/events, and /metrics serves the shared registry as OpenMetrics.
//
// # Admission control
//
// The serve/admission subpackage decides whether a submission is
// admitted or rejected (429 + Retry-After): a threshold policy on the
// estimated seconds of outstanding work, with per-job costs predicted
// from the point count and the number of state-space shapes the
// shared cache has not seen yet. The same policy is modelled
// analytically as policies.AdmissionQueue, and the conform battery
// cross-validates the two.
//
// # Shutdown
//
// Shutdown drains: submissions get 503 + Retry-After, queued and
// running jobs finish, workers exit. When the caller's context
// expires first, unfinished jobs are canceled through the engine's
// cooperative Cancel channel — in-flight points complete, the journal
// keeps a clean resumable prefix, and each killed job still writes a
// valid failure manifest.
package serve
