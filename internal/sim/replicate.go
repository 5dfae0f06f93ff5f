package sim

import (
	"fmt"
	"sync"

	"pepatags/internal/obsv"
	"pepatags/internal/stats"
	"pepatags/internal/workload"
)

// ReplicationConfig describes an embarrassingly-parallel batch of
// independent simulation replications. Each replication runs the Base
// configuration with its own RNG stream (ReplicationSeed) and its own
// workload source, so replications are statistically independent and
// the batch result is a function of (Base, Reps) only — never of the
// worker count or completion order.
type ReplicationConfig struct {
	// Base is the per-replication configuration. Its Seed is the batch
	// seed; replication rep runs with ReplicationSeed(Base.Seed, rep).
	// Progress, Events and EventObserver on Base are ignored — workers
	// run concurrently, so per-event hooks move to the batch level
	// (Progress/Events below fire once per completed replication).
	Base Config

	// NewSource returns a fresh workload source for one replication.
	// Sources are stateful (trace cursors, arrival clocks, MMPP phase),
	// so each replication must get its own; for trace replay return a
	// new workload.NewTrace over the shared job slice, for stochastic
	// workloads a fresh StochasticSource.
	NewSource func(rep int) workload.Source

	// NewPolicy, when non-nil, returns a fresh routing policy for each
	// replication. Stateful policies (round-robin cursors) need this —
	// sharing one instance across concurrent replications would race;
	// stateless policies can simply stay on Base.Policy.
	NewPolicy func(rep int) Policy

	// Reps is the replication count; Workers caps concurrency (<= 0
	// means one worker per replication, capped at Reps).
	Reps    int
	Workers int

	// Progress, when non-nil, fires after each completed replication
	// with Phase "sim.reps", the completed count, the total and the
	// replication's simulated clock. Calls are serialized (a batch
	// mutex guards them), so implementations need no locking of their
	// own.
	Progress obsv.ProgressFunc

	// Events, when non-nil, receives a "sim.replication" debug event
	// per completed replication and a "sim.replications.done" info
	// event when the batch drains.
	Events *obsv.EventLog
}

// ReplicationResult aggregates a replication batch. Metrics[rep] is the
// full per-replication result; the Pooled fields are independent-
// replications confidence intervals over per-replication means, and are
// permutation-invariant (stats.PoolMeans sorts before accumulating), so
// the batch output is byte-identical for any worker count.
type ReplicationResult struct {
	Metrics  []*Metrics
	Response stats.Pooled // pooled mean response time
	Slowdown stats.Pooled // pooled mean slowdown
	Loss     stats.Pooled // pooled loss probability
	Events   int          // total events processed across the batch
}

// ReplicationSeed derives replication rep's RNG seed from the batch
// seed: a golden-ratio stride keeps the streams well separated in PCG
// seed space while staying reproducible from (seed, rep) alone.
func ReplicationSeed(base uint64, rep int) uint64 {
	return base + uint64(rep)*0x9e3779b97f4a7c15
}

// RunReplications runs the batch over a worker pool and pools the
// results. Each replication runs until its source is exhausted and its
// events drain. Replications are independent: results land in a slice
// indexed by replication number, so scheduling order cannot affect the
// output.
func RunReplications(rc ReplicationConfig) (*ReplicationResult, error) {
	if rc.Reps < 1 {
		return nil, fmt.Errorf("sim: need at least 1 replication, got %d", rc.Reps)
	}
	if rc.NewSource == nil {
		return nil, fmt.Errorf("sim: RunReplications needs a NewSource factory")
	}
	workers := rc.Workers
	if workers <= 0 || workers > rc.Reps {
		workers = rc.Reps
	}

	res := &ReplicationResult{Metrics: make([]*Metrics, rc.Reps)}
	reps := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards done count + batch-level hooks
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range reps {
				cfg := rc.Base
				cfg.Seed = ReplicationSeed(rc.Base.Seed, rep)
				cfg.Source = rc.NewSource(rep)
				if rc.NewPolicy != nil {
					cfg.Policy = rc.NewPolicy(rep)
				}
				cfg.Progress = nil
				cfg.Events = nil
				cfg.EventObserver = nil
				m := NewSystem(cfg).Run(0)
				res.Metrics[rep] = m

				// Hooks run under the batch mutex so callers see them
				// serialized (no two Progress calls race) and each
				// "done" count is emitted exactly once, in order.
				mu.Lock()
				done++
				if rc.Progress != nil {
					rc.Progress(obsv.Progress{Phase: "sim.reps", Step: done, Count: rc.Reps, Value: m.Elapsed})
				}
				if rc.Events != nil {
					rc.Events.Emit(obsv.LevelDebug, "sim.replication", "", map[string]float64{
						"rep":       float64(rep),
						"done":      float64(done),
						"reps":      float64(rc.Reps),
						"events":    float64(m.Events),
						"completed": float64(m.Completed),
						"clock":     m.Elapsed,
					})
				}
				mu.Unlock()
			}
		}()
	}
	for rep := 0; rep < rc.Reps; rep++ {
		reps <- rep
	}
	close(reps)
	wg.Wait()

	resp := make([]float64, rc.Reps)
	slow := make([]float64, rc.Reps)
	loss := make([]float64, rc.Reps)
	for rep, m := range res.Metrics {
		resp[rep] = m.Response.Mean()
		slow[rep] = m.Slowdown.Mean()
		loss[rep] = m.LossProbability()
		res.Events += m.Events
	}
	var err error
	if res.Response, err = stats.PoolMeans(resp); err != nil {
		return nil, err
	}
	if res.Slowdown, err = stats.PoolMeans(slow); err != nil {
		return nil, err
	}
	if res.Loss, err = stats.PoolMeans(loss); err != nil {
		return nil, err
	}
	if rc.Events != nil {
		rc.Events.Emit(obsv.LevelInfo, "sim.replications.done", "", map[string]float64{
			"reps":     float64(rc.Reps),
			"events":   float64(res.Events),
			"response": res.Response.Mean,
			"ci":       res.Response.HalfWidth,
		})
	}
	return res, nil
}
