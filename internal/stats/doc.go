// Package stats supplies the output analysis for the simulator:
// Welford-style streaming moments (Summary), confidence intervals,
// pooling of independent replications (PoolMeans), and exact and
// reservoir-sampled percentiles (Percentile, Reservoir).
//
// The simulation tables in internal/exp report means with confidence
// intervals computed here, and the tagged-job table uses the
// percentile machinery to reproduce the paper's distribution-level
// comparisons; everything is streaming/one-pass so million-job runs
// need O(1) or O(capacity) memory.
package stats
