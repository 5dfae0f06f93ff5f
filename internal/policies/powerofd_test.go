package policies_test

import (
	"math"
	"testing"

	"pepatags/internal/dist"
	"pepatags/internal/policies"
	"pepatags/internal/sim"
	"pepatags/internal/workload"
)

func TestNewPowerOfDRejectsBadD(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPowerOfD(0) must panic")
		}
	}()
	policies.NewPowerOfD(0)
}

func TestPowerOfDString(t *testing.T) {
	if s := policies.NewPowerOfD(3).String(); s != "power-of-3" {
		t.Fatalf("String %q", s)
	}
}

// On an idle system every sampled pair ties at queue length 0, so by
// symmetry of the subset draw plus the uniform tie-break, routing must
// be uniform over all nodes — for any d, including d=1 (no tie-break)
// and d > n (degenerate full scan).
func TestPowerOfDUniformOnIdleSystem(t *testing.T) {
	for _, d := range []int{1, 2, 4, 7} {
		s := testSystem(4)
		p := policies.NewPowerOfD(d)
		const trials = 40000
		counts := make([]int, 4)
		for i := 0; i < trials; i++ {
			j := p.Route(s, nil)
			if j < 0 || j >= 4 {
				t.Fatalf("d=%d routed out of range: %d", d, j)
			}
			counts[j]++
		}
		for i, c := range counts {
			if frac := float64(c) / trials; math.Abs(frac-0.25) > 0.02 {
				t.Fatalf("d=%d node %d fraction %v want 0.25", d, i, frac)
			}
		}
	}
}

// Two simultaneous unit jobs on a two-node cluster: pod2 samples both
// nodes, so the second job must see the first one queued and take the
// empty node. Both then finish at t=1; a shared node would finish at 2.
func TestPowerOfDPrefersShorterSampledQueue(t *testing.T) {
	cfg := sim.Config{
		Nodes:  []sim.NodeConfig{{}, {}},
		Policy: policies.NewPowerOfD(2),
		Source: workload.NewTrace([]float64{0, 0}, []float64{1, 1}),
		Seed:   1,
	}
	m := sim.NewSystem(cfg).Run(0)
	if m.Response.Max() > 1+1e-12 {
		t.Fatalf("pod2 failed to spread: max response %v", m.Response.Max())
	}
}

// The virtual-shuffle scratch is reused across calls; hammer one
// instance and require the statistics to stay uniform (a stale
// association list would bias the subset draw).
func TestPowerOfDScratchReuse(t *testing.T) {
	s := testSystem(8)
	p := policies.NewPowerOfD(3)
	const trials = 80000
	counts := make([]int, 8)
	for i := 0; i < trials; i++ {
		counts[p.Route(s, nil)]++
	}
	for i, c := range counts {
		if frac := float64(c) / trials; math.Abs(frac-0.125) > 0.01 {
			t.Fatalf("node %d fraction %v want 0.125", i, frac)
		}
	}
}

// Weights that do not sum to 1 exercise Random's final fallback arm.
func TestRandomRouteFallback(t *testing.T) {
	s := testSystem(2)
	p := policies.Random{Weights: []float64{0, 0}}
	for i := 0; i < 100; i++ {
		if got := p.Route(s, nil); got != 1 {
			t.Fatalf("zero-weight fallback routed to %d want 1", got)
		}
	}
}

// Same spread test as pod2 for ShortestQueue: covers the
// strictly-shorter branch (the idle-system test only ties).
func TestShortestQueuePrefersShorterQueue(t *testing.T) {
	cfg := sim.Config{
		Nodes:  []sim.NodeConfig{{}, {}},
		Policy: policies.ShortestQueue{},
		Source: workload.NewTrace([]float64{0, 0}, []float64{1, 1}),
		Seed:   1,
	}
	m := sim.NewSystem(cfg).Run(0)
	if m.Response.Max() > 1+1e-12 {
		t.Fatalf("sq failed to spread: max response %v", m.Response.Max())
	}
}

func TestPowerOfDDegeneratesToShortestQueue(t *testing.T) {
	// d >= n samples every node, so with unequal queues the choice is
	// deterministic: replay the two-job trace with d much larger than n.
	cfg := sim.Config{
		Nodes:  []sim.NodeConfig{{}, {}, {}},
		Policy: policies.NewPowerOfD(16),
		Source: workload.NewTrace([]float64{0, 0, 0}, []float64{1, 1, 1}),
		Seed:   1,
	}
	m := sim.NewSystem(cfg).Run(0)
	if m.Response.Max() > 1+1e-12 {
		t.Fatalf("pod16 on 3 nodes failed to spread: max response %v", m.Response.Max())
	}
}

// The simulator calls Route once per arrival, so a routing policy that
// allocates would put garbage on every job. Both queue-length policies
// must allocate nothing per call, on an idle cluster (every node tied)
// and part way through a run (mixed queue lengths).
func TestRouteAllocatesNothing(t *testing.T) {
	midRun := func(p sim.Policy) *sim.System {
		nodes := make([]sim.NodeConfig, 8)
		for i := range nodes {
			nodes[i] = sim.NodeConfig{Capacity: 4}
		}
		s := sim.NewSystem(sim.Config{
			Nodes:  nodes,
			Policy: p,
			Source: &workload.StochasticSource{
				Arrivals: workload.NewPoisson(7),
				Sizes:    dist.NewExponential(1),
			},
			Seed: 3,
		})
		s.Run(50)
		return s
	}
	for _, p := range []sim.Policy{policies.ShortestQueue{}, policies.NewPowerOfD(2), policies.NewPowerOfD(5)} {
		for name, s := range map[string]*sim.System{"idle": testSystem(8), "mid-run": midRun(p)} {
			if a := testing.AllocsPerRun(200, func() { p.Route(s, nil) }); a != 0 {
				t.Errorf("%s on %s system: %v allocs per Route, want 0", p, name, a)
			}
		}
	}
}
