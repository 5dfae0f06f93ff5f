// Package pepa implements the Markovian process algebra PEPA
// (Hillston, 1996), the modelling substrate of the reproduced paper's
// Section 2: sequential components built from prefix, choice and
// constants; model-level cooperation and hiding; the apparent-rate
// cooperation semantics with passive (unspecified, ⊤) rates; a textual
// parser in PEPA Workbench style; and state-space derivation producing
// a labelled CTMC (internal/ctmc.Chain).
//
// The paper specifies the TAG job-allocation system as the PEPA model
//
//	Node1 ⋈{timeout} Node2
//
// with Erlang timers cooperating with state-indexed queue components
// (its Figures 3-5 and Appendices A-B); internal/core generates that
// text and cross-validates the engine against direct CTMC builders.
//
// # Derivation
//
// Derive explores the reachable state space breadth-first over
// integer-coded states. A compile step (code.go) enumerates the
// derivative closure of every sequential leaf and assigns each
// derivative a dense uint32 code; a global state is then a fixed-width
// tuple of leaf codes — one packed []uint32, hashed and compared as
// integers — and every per-code fact (outgoing moves, rates, action
// ids, deferred semantic errors) is precomputed into flat tables. The
// exploration loop never builds a string and allocates nothing per
// state: state tuples live in slab arenas, visited-set entries are
// intrusive hash chains, and move generation runs through reusable
// scratch buffers. State label strings are materialised once, at the
// end, straight into the exact-size slices ctmc.NewChain retains.
//
// Two engines share that semantics:
//
//   - the coded engine (parallel.go): level-synchronous frontier
//     expansion with a lock-striped visited set, per-worker slabs and
//     edge buffers, a deterministic rank-sort renumbering per level,
//     and a MaxStates bound checked per interned state.
//     DeriveOptions.Workers only sets its pool size; with one worker
//     every level is expanded on the calling goroutine;
//   - the legacy string-keyed serial engine
//     (DeriveOptions.Reference): the original direct-semantics
//     implementation, kept as the differential-testing oracle.
//
// Both produce bit-identical chains — same state numbering, same
// label strings, same transition order — for any worker count,
// because shared-action expansion follows sorted action order and the
// coded engine sorts each level's discoveries by their FIFO
// discovery rank. docs/PERFORMANCE.md covers the design and the
// measured numbers.
//
// DeriveOptions.Stats and DeriveOptions.Progress surface states/sec,
// frontier depth, dedup hits and the coded-engine counters (leaf
// codes, tuple-hash collisions; internal/obsv); cmd/pepa exposes them
// as -workers and -stats.
package pepa
