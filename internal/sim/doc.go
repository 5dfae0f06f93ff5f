// Package sim is a discrete-event simulator for the allocation
// systems, used where the Markov models stop: deterministic timeouts
// (the paper's actual policy, which the Erlang timers of Sections 3-4
// only approximate), per-job slowdown distributions, and the
// Section 7 bursty-arrival conjectures.
//
// Config wires nodes (finite capacity, optional timeout generator),
// an allocation Policy (internal/policies), and a workload Source
// (internal/workload) into a System; Run processes jobs on a single
// event queue and returns Metrics — response-time and slowdown
// summaries (internal/stats), throughput and loss probability —
// after a configurable warm-up.
//
// Runs are deterministic for a fixed Config.Seed: all randomness
// flows from one PCG stream, so experiments are reproducible and
// paired comparisons across policies share arrival sequences. The
// simulator is validated against the closed forms in
// internal/queueing and the exact CTMC measures in internal/core.
//
// Attaching an obsv.Registry (Config.Metrics) adds live counters
// (events, completions, drops, kills, migrations), response /
// slowdown / queue-length histograms and per-node occupancy gauges.
// The instruments buffer locally and flush at progress ticks, so an
// attached registry costs the event loop ~1% and a nil registry
// (the default) costs only a nil check; the simulation results are
// bit-identical either way. Config.Progress gives long runs a
// periodic liveness callback.
//
// The event core is a calendar queue (eventq.go) sized for clusters
// of thousands of nodes; the original container/heap loop survives
// behind Config.ReferenceCore as the differential oracle (the
// engine-swap pattern of pepa.DeriveOptions.Reference). Both cores
// implement the same strict (time, sequence) order, so every run is
// bit-identical on either — a property pinned by the scenario
// battery in internal/conform (sim_equiv_test.go) and benchmarked
// by `make bench-sim`.
//
// Run is allocation-free in steady state. Every scheduled event fires
// (there is no cancel), so an event goes back on a per-System free
// list once its handler returns, and a job once it completes or is
// lost; node queues and calendar buckets reuse their arrays through a
// head offset. A Policy must therefore not keep the *Job it routes.
// Set-up does not scale with the cluster either: the node queues
// start in one array for the node table, the buckets of a grown
// calendar in one array for the new buckets, and events and jobs past
// the first 64 are made in blocks of 64.
// The heap core shares the free lists, so a Metrics golden
// (golden_test.go) recorded before the recycling pins the results.
//
// RunReplications executes embarrassingly-parallel independent
// replications: each replication gets its own RNG stream
// (ReplicationSeed), source and policy, results land indexed by
// replication number, and the pooled confidence intervals
// (stats.PoolMeans) are permutation-invariant — so batch output is
// byte-identical for any worker count. docs/SIMULATION.md walks
// through the architecture, the sim-trace/v1 format and the
// replication workflow.
package sim
