// Package pepatags reproduces "Modelling job allocation where service
// duration is unknown" (Nigel Thomas, IPPS 2006): a PEPA/CTMC
// analysis of the TAG task-assignment policy — allocate every job to
// node 1, move it to node 2 if it exceeds a timeout — with bounded
// queues, phase-type service demands, analytic timeout
// approximations, a fluid (ODE) analysis and a discrete-event
// simulator.
//
// # Architecture
//
// The packages under internal/ form layers; each layer builds only on
// the ones below it:
//
//	cmd/pepa  cmd/tagseval  examples/           entry points
//	─────────────────────────────────────────
//	exp                                         one runner per figure/table (Sec. 5, 7)
//	─────────────────────────────────────────
//	sweep                                       batch engine: declarative specs,
//	                                              shape-keyed state-space cache,
//	                                              resumable journals (docs/SWEEPS.md)
//	─────────────────────────────────────────
//	core   approx   fluid   sim                 the paper's models and analyses:
//	                                              core   exact TAG CTMCs      (Sec. 3)
//	                                              approx balance heuristics   (Sec. 4)
//	                                              fluid  mean-field ODEs      (Sec. 3.1)
//	                                              sim    discrete-event sim   (Sec. 7)
//	─────────────────────────────────────────
//	pepa   queueing   policies   workload       modelling substrate:
//	                                              pepa   PEPA engine + derivation (Sec. 2)
//	                                              queueing closed-form baselines
//	─────────────────────────────────────────
//	ctmc   linalg   dist   stats   numeric      numerical foundation
//	─────────────────────────────────────────
//	obsv                                        instrumentation (stats + progress)
//
// A model is expressed either directly as a CTMC (internal/core) or
// as PEPA text (internal/pepa, Section 2 of the paper); both routes
// produce a ctmc.Chain whose generator is solved by internal/linalg
// for stationary measures, or integrated in time for transient ones.
// internal/exp turns those measures into the paper's figures and
// tables, and cmd/tagseval regenerates the lot. Grid evaluations —
// every figure of the paper's evaluation section, and user-authored
// parameter studies — run through internal/sweep, which expands a
// declarative spec into points, reuses the derived state space across
// points sharing a model shape, and journals results so interrupted
// runs resume byte-identically (tagseval -sweep; docs/SWEEPS.md).
//
// # Concurrency
//
// State-space derivation (pepa.DeriveOptions.Workers) scales across
// cores without changing results: a level-synchronous sharded BFS
// that is bit-identical to the serial reference. Sweeps run their
// points on a worker pool (sweep.Options.Workers). The solvers are
// serial. DESIGN.md documents the design and the determinism
// arguments; EXPERIMENTS.md records measured behaviour.
//
// The benchmarks in bench_test.go cover serial-vs-parallel derivation
// and the solvers; `make bench` summarises them into BENCH_derive.json.
package pepatags
