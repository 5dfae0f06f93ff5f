package sim_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"pepatags/internal/dist"
	"pepatags/internal/policies"
	"pepatags/internal/sim"
	"pepatags/internal/stats"
	"pepatags/internal/workload"
)

// The Metrics golden pins the float bits of every result field for a
// set of fixed-seed runs that between them reach each path of the
// event loop: TAG restart and resume (which rewrites Remaining), a
// shortest-queue cluster with frequent ties, power-of-d routing, a
// warm-up, and a replayed trace. The calendar-versus-heap battery
// cannot catch a fault that both cores share (say, an event or job
// reused while still live); this file can, because it was recorded
// before the cores shared anything and any change to a value shows as
// a changed line.

const metricsGolden = "testdata/metrics.golden"

type goldenCase struct {
	name string
	cfg  func() sim.Config
}

func goldenCases() []goldenCase {
	bands := []float64{0.25, 1, 4}
	return []goldenCase{
		{"tag-restart", func() sim.Config {
			return sim.Config{
				Nodes: []sim.NodeConfig{
					{Capacity: 10, Timeout: policies.ConstantTimeout(0.8)},
					{Capacity: 10},
				},
				Policy: policies.FirstNode{},
				Source: &workload.StochasticSource{
					Arrivals: workload.NewPoisson(0.9),
					Sizes:    dist.NewH2(0.9, 2, 0.2),
					Limit:    20000,
				},
				Seed:             3,
				SizeBands:        bands,
				PercentileSample: 2000,
			}
		}},
		{"tag-resume", func() sim.Config {
			return sim.Config{
				Nodes: []sim.NodeConfig{
					{Capacity: 8, Timeout: policies.ErlangTimeout(3, 6), Resume: true},
					{Capacity: 8, Timeout: policies.ConstantTimeout(1.5), Resume: true},
					{},
				},
				Policy: policies.FirstNode{},
				Source: &workload.StochasticSource{
					Arrivals: workload.NewPoisson(0.8),
					Sizes:    dist.NewH2(0.8, 3, 0.25),
					Limit:    20000,
				},
				Seed:             5,
				SizeBands:        bands,
				PercentileSample: 2000,
			}
		}},
		{"shortest-queue-ties", func() sim.Config {
			return sim.Config{
				Nodes:  []sim.NodeConfig{{Capacity: 3}, {Capacity: 3}, {Capacity: 3, Servers: 2}, {Capacity: 3}},
				Policy: policies.ShortestQueue{},
				Source: &workload.StochasticSource{
					Arrivals: workload.NewPoisson(3.5),
					Sizes:    dist.NewExponential(1),
					Limit:    20000,
				},
				Seed:             7,
				SizeBands:        bands,
				PercentileSample: 2000,
			}
		}},
		{"power-of-d", func() sim.Config {
			nodes := make([]sim.NodeConfig, 16)
			for i := range nodes {
				nodes[i] = sim.NodeConfig{Capacity: 6, Speed: 1 + float64(i%3)/2}
			}
			return sim.Config{
				Nodes:  nodes,
				Policy: policies.NewPowerOfD(2),
				Source: &workload.StochasticSource{
					Arrivals: workload.NewPoisson(18),
					Sizes:    dist.NewExponential(1),
					Limit:    20000,
				},
				Seed:             11,
				PercentileSample: 2000,
			}
		}},
		{"warmup", func() sim.Config {
			return sim.Config{
				Nodes: []sim.NodeConfig{
					{Capacity: 5, Timeout: policies.ConstantTimeout(0.5)},
					{Capacity: 5},
				},
				Policy: policies.FirstNode{},
				Source: &workload.StochasticSource{
					Arrivals: workload.NewPoisson(1.4),
					Sizes:    dist.NewExponential(1.6),
					Limit:    20000,
				},
				Seed:             13,
				Warmup:           2000,
				SizeBands:        bands,
				PercentileSample: 2000,
			}
		}},
		{"trace", func() sim.Config {
			jobs := workload.MMPPTrace(rand.New(rand.NewPCG(17, 19)), 20000, 4, 0.5, 0.2, 0.1, 1.5)
			return sim.Config{
				Nodes: []sim.NodeConfig{
					{Capacity: 6, Timeout: policies.ConstantTimeout(0.6)},
					{Capacity: 6},
				},
				Policy:           policies.FirstNode{},
				Source:           &workload.Trace{Jobs: jobs},
				Seed:             17,
				SizeBands:        bands,
				PercentileSample: 2000,
			}
		}},
	}
}

// goldenLines renders one run's Metrics as "case field bits value"
// lines: the IEEE-754 bits pin the value exactly, the decimal form is
// there for the reader.
func goldenLines(name string, m *sim.Metrics) []string {
	var out []string
	f := func(field string, v float64) {
		out = append(out, fmt.Sprintf("%s %s %016x %.17g", name, field, math.Float64bits(v), v))
	}
	n := func(field string, v int) {
		out = append(out, fmt.Sprintf("%s %s %d", name, field, v))
	}
	summary := func(field string, s *stats.Summary) {
		n(field+".N", s.N())
		f(field+".Mean", s.Mean())
		f(field+".Var", s.Var())
		f(field+".Min", s.Min())
		f(field+".Max", s.Max())
	}
	summary("Response", &m.Response)
	summary("Slowdown", &m.Slowdown)
	for i := range m.BandSlowdown {
		summary(fmt.Sprintf("BandSlowdown[%d]", i), &m.BandSlowdown[i])
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		f(fmt.Sprintf("ResponsePercentile(%g)", p), m.ResponsePercentile(p))
	}
	n("Completed", m.Completed)
	n("Dropped", m.Dropped)
	n("Killed", m.Killed)
	n("Events", m.Events)
	for i, b := range m.BusyTime {
		f(fmt.Sprintf("BusyTime[%d]", i), b)
	}
	f("Elapsed", m.Elapsed)
	return out
}

// TestMetricsGolden replays every golden case on both event cores and
// requires each field to match the recorded bits.
func TestMetricsGolden(t *testing.T) {
	raw, err := os.ReadFile(metricsGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	for _, ref := range []bool{false, true} {
		var got []string
		for _, c := range goldenCases() {
			cfg := c.cfg()
			cfg.ReferenceCore = ref
			got = append(got, goldenLines(c.name, sim.NewSystem(cfg).Run(0))...)
		}
		if len(got) != len(want) {
			t.Fatalf("reference=%v: %d golden lines, want %d", ref, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("reference=%v: line %d\n got %s\nwant %s", ref, i+1, got[i], want[i])
			}
		}
	}
}
