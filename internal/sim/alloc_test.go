package sim_test

import (
	"testing"

	"pepatags/internal/dist"
	"pepatags/internal/obsv"
	"pepatags/internal/policies"
	"pepatags/internal/sim"
	"pepatags/internal/workload"
)

// TestRunAllocationFree pins the steady-state allocation of the event
// loop at zero: events and jobs come from per-System free lists, and
// node queues and calendar buckets reuse their arrays. A run four times
// as long may therefore allocate only a few more objects (a free list
// or queue reaching a new high-water mark), whichever core runs it and
// with the registry instruments and size bands enabled.
func TestRunAllocationFree(t *testing.T) {
	run := func(jobs int, reference bool) float64 {
		return testing.AllocsPerRun(1, func() {
			sim.NewSystem(sim.Config{
				Nodes: []sim.NodeConfig{
					{Capacity: 10, Timeout: policies.ConstantTimeout(0.35)},
					{Capacity: 10},
				},
				Policy: policies.FirstNode{},
				Source: &workload.StochasticSource{
					Arrivals: workload.NewPoisson(8),
					Sizes:    dist.NewH2(0.9, 20, 2),
					Limit:    jobs,
				},
				Seed:          1,
				SizeBands:     []float64{0.1, 1},
				Metrics:       obsv.NewRegistry(),
				ReferenceCore: reference,
			}).Run(0)
		})
	}
	for _, reference := range []bool{false, true} {
		short, long := run(20_000, reference), run(80_000, reference)
		t.Logf("reference=%v: %v allocations at 20k jobs, %v at 80k", reference, short, long)
		if long-short >= 64 {
			t.Errorf("reference=%v: 20k jobs allocate %v objects, 80k jobs %v; want a difference under 64",
				reference, short, long)
		}
	}
}
