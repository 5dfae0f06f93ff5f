package sim_test

import (
	"fmt"
	"math"
	"testing"

	"pepatags/internal/core"
	"pepatags/internal/dist"
	"pepatags/internal/numeric"
	"pepatags/internal/obsv"
	"pepatags/internal/policies"
	"pepatags/internal/queueing"
	"pepatags/internal/sim"
	"pepatags/internal/workload"
)

// introTrace is the paper's Section 1 worked example: six jobs, all
// present at time zero.
func introTrace(sizes []float64) *workload.Trace {
	arr := make([]float64, len(sizes))
	return workload.NewTrace(arr, sizes)
}

// runTAGTrace simulates a two-node TAG system with a deterministic
// timeout tau over the traced jobs and returns the mean response time.
func runTAGTrace(t *testing.T, sizes []float64, tau float64) float64 {
	t.Helper()
	cfg := sim.Config{
		Nodes: []sim.NodeConfig{
			{Timeout: policies.ConstantTimeout(tau)},
			{},
		},
		Policy: policies.FirstNode{},
		Source: introTrace(sizes),
		Seed:   1,
	}
	m := sim.NewSystem(cfg).Run(0)
	if m.Completed != len(sizes) {
		t.Fatalf("completed %d want %d", m.Completed, len(sizes))
	}
	return m.Response.Mean()
}

func TestIntroWorkedExample(t *testing.T) {
	sizes := []float64{4, 5, 6, 7, 3, 2}
	// No timeout (or > 7): all jobs at node 1, mean response 17.
	if got := runTAGTrace(t, sizes, 100); !numeric.AlmostEqual(got, 17, 1e-12) {
		t.Fatalf("tau=inf: %v want 17", got)
	}
	// Timeout 1.5: everything times out, mean 18.5.
	if got := runTAGTrace(t, sizes, 1.5); !numeric.AlmostEqual(got, 18.5, 1e-12) {
		t.Fatalf("tau=1.5: %v want 18.5", got)
	}
	// Timeout 3.5: slight improvement, mean 16.67.
	if got := runTAGTrace(t, sizes, 3.5); !numeric.AlmostEqual(got, 100.0/6, 1e-12) {
		t.Fatalf("tau=3.5: %v want 16.67", got)
	}
	// Timeout fractionally above 3: the optimum 15.67.
	if got := runTAGTrace(t, sizes, 3.0000001); math.Abs(got-94.0/6) > 1e-4 {
		t.Fatalf("tau=3+: %v want 15.67", got)
	}
}

func TestIntroWorkedExampleHeavyJob(t *testing.T) {
	sizes := []float64{99, 5, 6, 7, 3, 2}
	// No timeout: mean 112.
	if got := runTAGTrace(t, sizes, 1000); !numeric.AlmostEqual(got, 112, 1e-12) {
		t.Fatalf("tau=inf: %v want 112", got)
	}
	// Timeout just above 7: mean 36.5 (the paper's "dramatic gain").
	if got := runTAGTrace(t, sizes, 7.0000001); math.Abs(got-36.5) > 1e-4 {
		t.Fatalf("tau=7+: %v want 36.5", got)
	}
}

func TestZeroTimeoutEquivalentToSecondNodeOnly(t *testing.T) {
	sizes := []float64{4, 5, 6, 7, 3, 2}
	// The paper: timeout zero pushes everything to node 2, mean still 17.
	got := runTAGTrace(t, sizes, 0)
	if !numeric.AlmostEqual(got, 17, 1e-9) {
		t.Fatalf("tau=0: %v want 17", got)
	}
}

func TestResumeSemanticsNoWastedWork(t *testing.T) {
	// With resume (multi-level feedback), a single large job loses no
	// work: response = size regardless of the timeout.
	cfg := sim.Config{
		Nodes: []sim.NodeConfig{
			{Timeout: policies.ConstantTimeout(2), Resume: true},
			{},
		},
		Policy: policies.FirstNode{},
		Source: introTrace([]float64{10}),
		Seed:   1,
	}
	m := sim.NewSystem(cfg).Run(0)
	if !numeric.AlmostEqual(m.Response.Mean(), 10, 1e-9) {
		t.Fatalf("resume response %v want 10", m.Response.Mean())
	}
	// With restart the same job pays the timeout again: 2 + 10 = 12.
	cfg2 := sim.Config{
		Nodes: []sim.NodeConfig{
			{Timeout: policies.ConstantTimeout(2)},
			{},
		},
		Policy: policies.FirstNode{},
		Source: introTrace([]float64{10}),
		Seed:   1,
	}
	m2 := sim.NewSystem(cfg2).Run(0)
	if !numeric.AlmostEqual(m2.Response.Mean(), 12, 1e-9) {
		t.Fatalf("restart response %v want 12", m2.Response.Mean())
	}
}

func TestMM1SimMatchesTheory(t *testing.T) {
	// Single unbounded node, Poisson(5)/Exp(10): W = 1/(mu-lambda) = 0.2.
	cfg := sim.Config{
		Nodes:  []sim.NodeConfig{{}},
		Policy: policies.FirstNode{},
		Source: &workload.StochasticSource{
			Arrivals: workload.NewPoisson(5),
			Sizes:    dist.NewExponential(10),
			Limit:    400000,
		},
		Seed:   42,
		Warmup: 100,
	}
	m := sim.NewSystem(cfg).Run(0)
	if math.Abs(m.Response.Mean()-0.2)/0.2 > 0.03 {
		t.Fatalf("W %v want 0.2", m.Response.Mean())
	}
	if math.Abs(m.Utilization(0)-0.5) > 0.02 {
		t.Fatalf("rho %v want 0.5", m.Utilization(0))
	}
}

func TestMM1KSimMatchesClosedForm(t *testing.T) {
	want := queueing.NewMM1K(8, 10, 5)
	cfg := sim.Config{
		Nodes:  []sim.NodeConfig{{Capacity: 5}},
		Policy: policies.FirstNode{},
		Source: &workload.StochasticSource{
			Arrivals: workload.NewPoisson(8),
			Sizes:    dist.NewExponential(10),
			Limit:    400000,
		},
		Seed:   7,
		Warmup: 100,
	}
	m := sim.NewSystem(cfg).Run(0)
	if math.Abs(m.LossProbability()-want.LossProbability())/want.LossProbability() > 0.05 {
		t.Fatalf("loss %v want %v", m.LossProbability(), want.LossProbability())
	}
	if math.Abs(m.Response.Mean()-want.ResponseTime())/want.ResponseTime() > 0.05 {
		t.Fatalf("W %v want %v", m.Response.Mean(), want.ResponseTime())
	}
}

func TestTAGSimMatchesCTMCWithErlangTimeout(t *testing.T) {
	// The simulator with an Erlang(n, t) kill timer, exponential sizes
	// and bounded queues approximates the Figure 3 CTMC. (The model
	// resamples the repeat period at node 2 while the simulator repeats
	// the actual work; means agree, shapes differ slightly.)
	lambda, mu, tr := 5.0, 10.0, 42.0
	n, k := 6, 10
	exact, err := core.NewTAGExp(lambda, mu, tr, n, k, k).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Nodes: []sim.NodeConfig{
			{Capacity: k, Timeout: policies.ErlangTimeout(n, tr)},
			{Capacity: k},
		},
		Policy: policies.FirstNode{},
		Source: &workload.StochasticSource{
			Arrivals: workload.NewPoisson(lambda),
			Sizes:    dist.NewExponential(mu),
			Limit:    600000,
		},
		Seed:   11,
		Warmup: 200,
	}
	m := sim.NewSystem(cfg).Run(0)
	if rel := math.Abs(m.Response.Mean()-exact.W) / exact.W; rel > 0.08 {
		t.Fatalf("sim W %v vs CTMC %v (rel %v)", m.Response.Mean(), exact.W, rel)
	}
	if rel := math.Abs(m.Throughput()-exact.Throughput) / exact.Throughput; rel > 0.03 {
		t.Fatalf("sim X %v vs CTMC %v (rel %v)", m.Throughput(), exact.Throughput, rel)
	}
}

func TestJSQSimMatchesCTMC(t *testing.T) {
	lambda, mu, k := 11.0, 10.0, 10
	exact, err := core.NewShortestQueue(lambda, dist.NewExponential(mu), k).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Nodes:  []sim.NodeConfig{{Capacity: k}, {Capacity: k}},
		Policy: policies.ShortestQueue{},
		Source: &workload.StochasticSource{
			Arrivals: workload.NewPoisson(lambda),
			Sizes:    dist.NewExponential(mu),
			Limit:    600000,
		},
		Seed:   13,
		Warmup: 200,
	}
	m := sim.NewSystem(cfg).Run(0)
	if rel := math.Abs(m.Response.Mean()-exact.W) / exact.W; rel > 0.05 {
		t.Fatalf("sim W %v vs CTMC %v (rel %v)", m.Response.Mean(), exact.W, rel)
	}
}

func TestRandomPolicySplitsEvenly(t *testing.T) {
	cfg := sim.Config{
		Nodes:  []sim.NodeConfig{{}, {}},
		Policy: policies.NewUniformRandom(2),
		Source: &workload.StochasticSource{
			Arrivals: workload.NewPoisson(4),
			Sizes:    dist.NewExponential(10),
			Limit:    100000,
		},
		Seed: 3,
	}
	m := sim.NewSystem(cfg).Run(0)
	if m.Completed != 100000 {
		t.Fatalf("completed %d", m.Completed)
	}
	if math.Abs(m.Utilization(0)-m.Utilization(1)) > 0.02 {
		t.Fatalf("asymmetric utilizations %v %v", m.Utilization(0), m.Utilization(1))
	}
}

func TestRoundRobinAlternates(t *testing.T) {
	rr := &policies.RoundRobin{}
	cfg := sim.Config{
		Nodes:  []sim.NodeConfig{{}, {}, {}},
		Policy: rr,
		Source: introTrace([]float64{1, 1, 1, 1, 1, 1}),
		Seed:   5,
	}
	m := sim.NewSystem(cfg).Run(0)
	// Six unit jobs over three idle nodes: all complete at t=... pairs;
	// each node got exactly two jobs (busy time 2 each).
	for i := 0; i < 3; i++ {
		if !numeric.AlmostEqual(m.BusyTime[i], 2, 1e-12) {
			t.Fatalf("node %d busy %v want 2", i, m.BusyTime[i])
		}
	}
}

func TestLeastWorkLeftBeatsJSQOnHeavyTail(t *testing.T) {
	run := func(p sim.Policy) float64 {
		cfg := sim.Config{
			Nodes:  []sim.NodeConfig{{}, {}},
			Policy: p,
			Source: &workload.StochasticSource{
				Arrivals: workload.NewPoisson(11),
				Sizes:    dist.H2ForTAG(0.1, 0.99, 100),
				Limit:    300000,
			},
			Seed:   17,
			Warmup: 100,
		}
		return sim.NewSystem(cfg).Run(0).Response.Mean()
	}
	jsq := run(policies.ShortestQueue{})
	lwl := run(policies.LeastWorkLeft{})
	if lwl > jsq*1.15 {
		t.Fatalf("LWL %v should not lose badly to JSQ %v", lwl, jsq)
	}
}

func TestSlowdownMetric(t *testing.T) {
	// One job of size 2 alone: slowdown exactly 1.
	cfg := sim.Config{
		Nodes:  []sim.NodeConfig{{}},
		Policy: policies.FirstNode{},
		Source: introTrace([]float64{2}),
		Seed:   1,
	}
	m := sim.NewSystem(cfg).Run(0)
	if !numeric.AlmostEqual(m.Slowdown.Mean(), 1, 1e-12) {
		t.Fatalf("slowdown %v want 1", m.Slowdown.Mean())
	}
}

func TestDropAccountingAndBoundedQueues(t *testing.T) {
	// Capacity 1 and simultaneous arrivals: later jobs are dropped.
	cfg := sim.Config{
		Nodes:  []sim.NodeConfig{{Capacity: 1}},
		Policy: policies.FirstNode{},
		Source: introTrace([]float64{1, 1, 1}),
		Seed:   1,
	}
	m := sim.NewSystem(cfg).Run(0)
	if m.Completed != 1 || m.Dropped != 2 {
		t.Fatalf("completed %d dropped %d", m.Completed, m.Dropped)
	}
	if !numeric.AlmostEqual(m.LossProbability(), 2.0/3, 1e-12) {
		t.Fatalf("loss prob %v", m.LossProbability())
	}
}

func TestKilledAccounting(t *testing.T) {
	// Node 2 capacity 1: two big jobs time out; the second transfer
	// finds node 2 full and dies.
	cfg := sim.Config{
		Nodes: []sim.NodeConfig{
			{Timeout: policies.ConstantTimeout(0.5)},
			{Capacity: 1},
		},
		Policy: policies.FirstNode{},
		Source: introTrace([]float64{100, 100}),
		Seed:   1,
	}
	m := sim.NewSystem(cfg).Run(0)
	if m.Killed != 1 || m.Completed != 1 {
		t.Fatalf("killed %d completed %d", m.Killed, m.Completed)
	}
}

func TestMultiServerNode(t *testing.T) {
	// Two servers, two simultaneous unit jobs: both done at t=1.
	cfg := sim.Config{
		Nodes:  []sim.NodeConfig{{Servers: 2}},
		Policy: policies.FirstNode{},
		Source: introTrace([]float64{1, 1}),
		Seed:   1,
	}
	m := sim.NewSystem(cfg).Run(0)
	if !numeric.AlmostEqual(m.Response.Mean(), 1, 1e-12) {
		t.Fatalf("mean response %v want 1", m.Response.Mean())
	}
}

func TestSpeedScaling(t *testing.T) {
	cfg := sim.Config{
		Nodes:  []sim.NodeConfig{{Speed: 2}},
		Policy: policies.FirstNode{},
		Source: introTrace([]float64{4}),
		Seed:   1,
	}
	m := sim.NewSystem(cfg).Run(0)
	if !numeric.AlmostEqual(m.Response.Mean(), 2, 1e-12) {
		t.Fatalf("response %v want 2 at speed 2", m.Response.Mean())
	}
}

func TestMaxTimeCutoff(t *testing.T) {
	cfg := sim.Config{
		Nodes:  []sim.NodeConfig{{}},
		Policy: policies.FirstNode{},
		Source: &workload.StochasticSource{
			Arrivals: workload.NewPoisson(1),
			Sizes:    dist.NewExponential(1),
		},
		Seed: 9,
	}
	m := sim.NewSystem(cfg).Run(50)
	if m.Elapsed > 50+1e-9 {
		t.Fatalf("elapsed %v exceeds horizon", m.Elapsed)
	}
	if m.Completed == 0 {
		t.Fatal("nothing completed")
	}
}

func TestSizeThresholdPolicy(t *testing.T) {
	p := policies.SizeThreshold{Thresholds: []float64{3}}
	cfg := sim.Config{
		Nodes:  []sim.NodeConfig{{}, {}},
		Policy: p,
		Source: introTrace([]float64{1, 5, 2, 9}),
		Seed:   1,
	}
	m := sim.NewSystem(cfg).Run(0)
	// Small jobs (1, 2) to node 0 (busy 3), big (5, 9) to node 1 (busy 14).
	if !numeric.AlmostEqual(m.BusyTime[0], 3, 1e-12) || !numeric.AlmostEqual(m.BusyTime[1], 14, 1e-12) {
		t.Fatalf("busy %v", m.BusyTime)
	}
}

func TestResponsePercentiles(t *testing.T) {
	cfg := sim.Config{
		Nodes:  []sim.NodeConfig{{}},
		Policy: policies.FirstNode{},
		Source: &workload.StochasticSource{
			Arrivals: workload.NewPoisson(5),
			Sizes:    dist.NewExponential(10),
			Limit:    100000,
		},
		Seed:             21,
		Warmup:           20,
		PercentileSample: 5000,
	}
	m := sim.NewSystem(cfg).Run(0)
	p50 := m.ResponsePercentile(0.5)
	p99 := m.ResponsePercentile(0.99)
	// M/M/1 response is exponential with rate mu-lambda = 5: median
	// ln(2)/5 ~ 0.139, p99 ln(100)/5 ~ 0.921.
	if math.Abs(p50-math.Ln2/5)/(math.Ln2/5) > 0.15 {
		t.Fatalf("median %v want ~%v", p50, math.Ln2/5)
	}
	if math.Abs(p99-math.Log(100)/5)/(math.Log(100)/5) > 0.2 {
		t.Fatalf("p99 %v want ~%v", p99, math.Log(100)/5)
	}
	// Disabled by default.
	cfg.PercentileSample = 0
	cfg.Source = &workload.StochasticSource{
		Arrivals: workload.NewPoisson(5), Sizes: dist.NewExponential(10), Limit: 10}
	if sim.NewSystem(cfg).Run(0).ResponsePercentile(0.5) != 0 {
		t.Fatal("percentiles should be zero when disabled")
	}
}

// TestMetricsRegistry runs a TAG simulation with a registry attached
// and checks the instrument values agree with the Metrics result —
// the registry is a second, independently-maintained account of the
// same run.
func TestMetricsRegistry(t *testing.T) {
	reg := obsv.NewRegistry()
	var ticks []obsv.Progress
	cfg := sim.Config{
		Nodes: []sim.NodeConfig{
			{Capacity: 5, Timeout: policies.ConstantTimeout(0.2)},
			{Capacity: 5},
		},
		Policy: policies.FirstNode{},
		Source: &workload.StochasticSource{
			Arrivals: workload.NewPoisson(12),
			Sizes:    dist.H2ForTAG(0.1, 0.99, 100),
			Limit:    20000,
		},
		Seed:          3,
		Warmup:        10,
		Metrics:       reg,
		Progress:      func(p obsv.Progress) { ticks = append(ticks, p) },
		ProgressEvery: 1000,
	}
	m := sim.NewSystem(cfg).Run(0)

	for _, tc := range []struct {
		name string
		want int
	}{
		{"sim.completed", m.Completed},
		{"sim.dropped", m.Dropped},
		{"sim.killed", m.Killed},
	} {
		if got := reg.Counter(tc.name).Value(); got != int64(tc.want) {
			t.Errorf("%s = %d, want %d", tc.name, got, tc.want)
		}
	}
	if got := reg.Histogram("sim.response").Count(); got != int64(m.Completed) {
		t.Errorf("sim.response count = %d, want %d", got, m.Completed)
	}
	if got, want := reg.Histogram("sim.response").Mean(), m.Response.Mean(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("sim.response mean = %g, want %g", got, want)
	}
	if got, want := reg.Histogram("sim.slowdown").Mean(), m.Slowdown.Mean(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("sim.slowdown mean = %g, want %g", got, want)
	}
	if reg.Counter("sim.events").Value() == 0 {
		t.Error("sim.events never incremented")
	}
	if reg.Counter("sim.migrated").Value() == 0 {
		t.Error("expected some timeout migrations under this load")
	}
	if reg.Histogram("sim.queue_len").Count() == 0 {
		t.Error("sim.queue_len never observed")
	}
	// Queues drain by the end of the run.
	for i := 0; i < 2; i++ {
		if q := reg.Gauge(fmt.Sprintf("sim.node%d.queue", i)).Value(); q != 0 {
			t.Errorf("node %d gauge = %g at end of run, want 0", i, q)
		}
	}
	if len(ticks) == 0 {
		t.Fatal("progress callback never fired")
	}
	for i, p := range ticks {
		if p.Phase != "sim" || p.Step != (i+1)*1000 {
			t.Fatalf("tick %d = %+v, want phase sim step %d", i, p, (i+1)*1000)
		}
	}
}

// TestProgressCadence pins the progress tick: Progress fires exactly
// ⌊events/every⌋ times, at Step every, 2·every, …, with the registry's
// sim.events counter flushed up to that Step, and the counter's final
// total equals Metrics.Events, whether or not every divides the event
// count.
func TestProgressCadence(t *testing.T) {
	cfg := func() sim.Config {
		return sim.Config{
			Nodes: []sim.NodeConfig{
				{Capacity: 10, Timeout: policies.ConstantTimeout(0.35)},
				{Capacity: 10},
			},
			Policy: policies.FirstNode{},
			Source: &workload.StochasticSource{
				Arrivals: workload.NewPoisson(8),
				Sizes:    dist.H2ForTAG(0.1, 0.99, 100),
				Limit:    3000,
			},
			Seed: 5,
		}
	}
	events := sim.NewSystem(cfg()).Run(0).Events
	divisor, other := 0, 0
	for d := 2; d < events && divisor == 0; d++ {
		if events%d == 0 {
			divisor = d
		}
	}
	for d := 997; other == 0; d++ {
		if events%d != 0 {
			other = d
		}
	}
	everies := []int{1, other, events - 1, events, events + 1}
	if divisor != 0 {
		everies = append(everies, divisor, events/divisor)
	}
	t.Logf("%d events; every = %v", events, everies)
	for _, every := range everies {
		reg := obsv.NewRegistry()
		var steps []int
		c := cfg()
		c.Metrics = reg
		c.ProgressEvery = every
		c.Progress = func(p obsv.Progress) {
			if got := reg.Counter("sim.events").Value(); got != int64(p.Step) {
				t.Errorf("every=%d: sim.events = %d at step %d", every, got, p.Step)
			}
			steps = append(steps, p.Step)
		}
		m := sim.NewSystem(c).Run(0)
		if m.Events != events {
			t.Fatalf("every=%d: %d events, want %d", every, m.Events, events)
		}
		if len(steps) != events/every {
			t.Errorf("every=%d: Progress fired %d times, want %d", every, len(steps), events/every)
		}
		for i, s := range steps {
			if s != (i+1)*every {
				t.Errorf("every=%d: tick %d at step %d, want %d", every, i, s, (i+1)*every)
				break
			}
		}
		if got := reg.Counter("sim.events").Value(); got != int64(events) {
			t.Errorf("every=%d: sim.events = %d, want %d", every, got, events)
		}
	}
}

// TestMetricsNilRegistryUnchanged guards the default path: attaching
// no registry must not change simulation results.
func TestMetricsNilRegistryUnchanged(t *testing.T) {
	mk := func(reg *obsv.Registry) *sim.Metrics {
		cfg := sim.Config{
			Nodes: []sim.NodeConfig{
				{Capacity: 10, Timeout: policies.ConstantTimeout(0.35)},
				{Capacity: 10},
			},
			Policy: policies.FirstNode{},
			Source: &workload.StochasticSource{
				Arrivals: workload.NewPoisson(8),
				Sizes:    dist.NewExponential(10),
				Limit:    5000,
			},
			Seed:    9,
			Metrics: reg,
		}
		return sim.NewSystem(cfg).Run(0)
	}
	plain := mk(nil)
	instrumented := mk(obsv.NewRegistry())
	if plain.Completed != instrumented.Completed ||
		plain.Dropped != instrumented.Dropped ||
		plain.Killed != instrumented.Killed ||
		plain.Response.Mean() != instrumented.Response.Mean() {
		t.Fatalf("registry changed results: %+v vs %+v", plain, instrumented)
	}
}
