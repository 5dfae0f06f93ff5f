package sim_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"pepatags/internal/dist"
	"pepatags/internal/policies"
	"pepatags/internal/sim"
	"pepatags/internal/workload"
)

// Event-core benchmarks: the same power-of-2 cluster workload driven
// through the calendar queue and the retained heap reference core, at
// cluster sizes up to well past the 1,000-node mark. Each reports
// events/s (total processed events over wall time) via ReportMetric,
// which `make bench-sim` captures into BENCH_sim.json through
// tools/benchjson.

const benchJobs = 100_000

// benchConfig builds a fresh config per iteration: sources and
// policies are stateful, so they cannot be reused across runs.
func benchConfig(nodes int, reference bool) sim.Config {
	ncfg := make([]sim.NodeConfig, nodes)
	for i := range ncfg {
		ncfg[i] = sim.NodeConfig{Capacity: 64, Servers: 1, Speed: 1}
	}
	return sim.Config{
		Nodes:  ncfg,
		Policy: policies.NewPowerOfD(2),
		Source: &workload.StochasticSource{
			// Load 0.7 per node keeps every node active without
			// saturating, so the event calendar stays densely populated.
			Arrivals: workload.NewPoisson(0.7 * float64(nodes)),
			Sizes:    dist.NewExponential(1),
			Limit:    benchJobs,
		},
		Seed:          42,
		ReferenceCore: reference,
	}
}

func benchCore(b *testing.B, nodes int, reference bool) {
	b.ReportAllocs()
	var events int
	for i := 0; i < b.N; i++ {
		m := sim.NewSystem(benchConfig(nodes, reference)).Run(0)
		events += m.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkSimCalendar(b *testing.B) {
	for _, n := range []int{100, 1000, 4000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) { benchCore(b, n, false) })
	}
}

func BenchmarkSimHeap(b *testing.B) {
	for _, n := range []int{100, 1000, 4000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) { benchCore(b, n, true) })
	}
}

// BenchmarkSimTwoNodeTAG runs the shape of perfbench's sim-reps
// workload on the calendar core: two nodes of capacity 10, a constant
// timeout of 0.35 at the first, H2(mean 0.1, alpha 0.99, ratio 100)
// sizes and Poisson(8) arrivals. The system never holds more than the
// next arrival and one departure per node, so this measures the event
// loop's fixed cost per event. The trace is generated once, outside
// the timer; each iteration replays it.
func BenchmarkSimTwoNodeTAG(b *testing.B) {
	src := &workload.StochasticSource{
		Arrivals: workload.NewPoisson(8),
		Sizes:    dist.H2ForTAG(0.1, 0.99, 100),
		Limit:    benchJobs,
	}
	jobs := workload.GenerateTrace(src, rand.New(rand.NewPCG(42, 0)), benchJobs)
	b.ReportAllocs()
	b.ResetTimer()
	var events int
	for i := 0; i < b.N; i++ {
		m := sim.NewSystem(sim.Config{
			Nodes: []sim.NodeConfig{
				{Capacity: 10, Timeout: policies.ConstantTimeout(0.35)},
				{Capacity: 10},
			},
			Policy: policies.FirstNode{},
			Source: &workload.Trace{Jobs: jobs},
			Seed:   42,
		}).Run(0)
		events += m.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
