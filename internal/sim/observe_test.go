package sim_test

import (
	"testing"

	"pepatags/internal/policies"
	"pepatags/internal/sim"
	"pepatags/internal/workload"
)

// A TAG run with kills exercises every observer record kind plus the
// size-band and reservoir instrumentation in one pass.
func TestObserverBandsAndPercentiles(t *testing.T) {
	var recs []sim.EventRecord
	cfg := sim.Config{
		Nodes: []sim.NodeConfig{
			{Timeout: policies.ConstantTimeout(2)},
			{},
		},
		Policy:           policies.FirstNode{},
		Source:           workload.NewTrace([]float64{0, 0, 0, 0}, []float64{1, 5, 1, 5}),
		Seed:             1,
		SizeBands:        []float64{2},
		PercentileSample: 16,
		EventObserver:    func(r sim.EventRecord) { recs = append(recs, r) },
	}
	m := sim.NewSystem(cfg).Run(0)
	if m.Completed != 4 {
		t.Fatalf("completed %d want 4", m.Completed)
	}

	kinds := map[string]int{}
	var prev sim.EventRecord
	for i, r := range recs {
		kinds[r.Kind]++
		// Execution order is strictly (at, seq): time first, then the
		// scheduling sequence number as the deterministic tie-break.
		if i > 0 && (r.At < prev.At || (r.At == prev.At && r.Seq <= prev.Seq)) { //vet:allow floatcmp: tie-break applies only on exactly equal timestamps
			t.Fatalf("observer records out of order: %+v after %+v", r, prev)
		}
		prev = r
		switch r.Kind {
		case "arrival":
			if r.Node != -1 {
				t.Fatalf("arrival record carries node %d", r.Node)
			}
		case "kill", "departure":
			if r.Node < 0 || r.Node > 1 {
				t.Fatalf("%s record carries node %d", r.Kind, r.Node)
			}
		default:
			t.Fatalf("unknown record kind %q", r.Kind)
		}
	}
	if kinds["arrival"] != 4 {
		t.Fatalf("arrivals %d want 4", kinds["arrival"])
	}
	// The two size-5 jobs outlive the timeout at node 0.
	if kinds["kill"] != 2 {
		t.Fatalf("kills %d want 2", kinds["kill"])
	}
	if kinds["departure"] == 0 {
		t.Fatal("no departures observed")
	}

	// Two jobs per band, both bands populated with positive slowdowns.
	if len(m.BandSlowdown) != 2 {
		t.Fatalf("bands %d want 2", len(m.BandSlowdown))
	}
	for i, b := range m.BandSlowdown {
		if b.N() != 2 || b.Mean() < 1 {
			t.Fatalf("band %d: n=%d mean=%v", i, b.N(), b.Mean())
		}
	}
	// All four responses fit the reservoir, so the extremes are exact.
	if m.ResponsePercentile(0) != m.Response.Min() || m.ResponsePercentile(1) != m.Response.Max() { //vet:allow floatcmp: reservoir retained every sample
		t.Fatalf("percentile extremes %v..%v want %v..%v",
			m.ResponsePercentile(0), m.ResponsePercentile(1), m.Response.Min(), m.Response.Max())
	}
}

func TestMetricsEdgeCases(t *testing.T) {
	var m sim.Metrics
	if m.Throughput() != 0 || m.LossProbability() != 0 || m.ResponsePercentile(0.5) != 0 { //vet:allow floatcmp: zero-value guards return exact zeros
		t.Fatal("zero-value metrics must report zeros")
	}
	m.Elapsed = 10
	m.BusyTime = []float64{5}
	if m.Utilization(0) != 0.5 { //vet:allow floatcmp: 5/10 is exact
		t.Fatalf("utilization %v want 0.5", m.Utilization(0))
	}
	var empty sim.Metrics
	empty.BusyTime = []float64{5}
	if empty.Utilization(0) != 0 { //vet:allow floatcmp: zero-elapsed guard returns exact zero
		t.Fatal("zero-elapsed utilization must be 0")
	}
}

func TestSystemClockAdvances(t *testing.T) {
	cfg := sim.Config{
		Nodes:  []sim.NodeConfig{{}},
		Policy: policies.FirstNode{},
		Source: workload.NewTrace([]float64{0}, []float64{3}),
		Seed:   1,
	}
	// Elapsed is the clock when the event queue drains.
	m := sim.NewSystem(cfg).Run(0)
	if m.Elapsed != 3 { //vet:allow floatcmp: single deterministic job finishes exactly at its size
		t.Fatalf("clock after Run: %v want 3", m.Elapsed)
	}
}
