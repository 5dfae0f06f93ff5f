package sim_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"pepatags/internal/dist"
	"pepatags/internal/policies"
	"pepatags/internal/sim"
	"pepatags/internal/stats"
	"pepatags/internal/workload"
)

// fingerprint renders a replication batch as exact float bit patterns,
// so equality between two fingerprints means byte-identical results.
func fingerprint(r *sim.ReplicationResult) string {
	var b strings.Builder
	for rep, m := range r.Metrics {
		fmt.Fprintf(&b, "rep%d n=%d mean=%x var=%x slow=%x c=%d d=%d k=%d ev=%d el=%x",
			rep, m.Response.N(), math.Float64bits(m.Response.Mean()), math.Float64bits(m.Response.Var()),
			math.Float64bits(m.Slowdown.Mean()), m.Completed, m.Dropped, m.Killed, m.Events,
			math.Float64bits(m.Elapsed))
		for _, bt := range m.BusyTime {
			fmt.Fprintf(&b, " busy=%x", math.Float64bits(bt))
		}
		b.WriteByte('\n')
	}
	for _, p := range []stats.Pooled{r.Response, r.Slowdown, r.Loss} {
		fmt.Fprintf(&b, "pool r=%d mean=%x se=%x hw=%x\n",
			p.Reps, math.Float64bits(p.Mean), math.Float64bits(p.StdErr), math.Float64bits(p.HalfWidth))
	}
	fmt.Fprintf(&b, "events=%d\n", r.Events)
	return b.String()
}

func repConfig(workers int) sim.ReplicationConfig {
	return sim.ReplicationConfig{
		Base: sim.Config{
			Nodes: []sim.NodeConfig{
				{Capacity: 8, Speed: 1},
				{Capacity: 8, Speed: 2},
				{Capacity: 8, Speed: 1},
				{Capacity: 8, Speed: 2},
			},
			Policy: policies.ShortestQueue{},
			Seed:   42,
			Warmup: 5,
		},
		NewSource: func(rep int) workload.Source {
			return &workload.StochasticSource{
				Arrivals: workload.NewPoisson(3),
				Sizes:    dist.NewExponential(1.5),
				Limit:    4000,
			}
		},
		Reps:    8,
		Workers: workers,
	}
}

// TestReplicationsDeterministicAcrossWorkers is the headline
// determinism guarantee: the same seed produces byte-identical batch
// results at 1, 2, 4 and 8 workers.
func TestReplicationsDeterministicAcrossWorkers(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		rc := repConfig(workers)
		res, err := sim.RunReplications(rc)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := fingerprint(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: results differ from workers=1:\n--- got ---\n%s--- want ---\n%s", workers, got, want)
		}
	}
}

// TestReplicationsTraceDeterministic repeats the worker sweep with
// trace replay: every replication replays the identical trace, and the
// batch is byte-identical at every worker count.
func TestReplicationsTraceDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	var jobs []workload.Job
	at := 0.0
	for i := 0; i < 2000; i++ {
		at += rng.ExpFloat64() / 2
		jobs = append(jobs, workload.Job{ID: i + 1, Arrival: at, Size: 0.1 + rng.ExpFloat64()})
	}
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		rc := sim.ReplicationConfig{
			Base: sim.Config{
				Nodes:  []sim.NodeConfig{{Capacity: 6}, {Capacity: 6}},
				Policy: policies.ShortestQueue{},
				Seed:   7,
			},
			NewSource: func(int) workload.Source { return &workload.Trace{Jobs: jobs} },
			Reps:      6,
			Workers:   workers,
		}
		res, err := sim.RunReplications(rc)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := fingerprint(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: trace-replay results differ across worker counts", workers)
		}
	}
}

// TestReplicationMatchesSingleRun pins the per-replication seed rule: a
// batch replication must be bit-identical to a standalone run with the
// derived seed and an identical source.
func TestReplicationMatchesSingleRun(t *testing.T) {
	rc := repConfig(3)
	res, err := sim.RunReplications(rc)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < rc.Reps; rep++ {
		cfg := rc.Base
		cfg.Seed = sim.ReplicationSeed(rc.Base.Seed, rep)
		cfg.Source = rc.NewSource(rep)
		m := sim.NewSystem(cfg).Run(0)
		got, want := res.Metrics[rep], m
		if got.Completed != want.Completed ||
			math.Float64bits(got.Response.Mean()) != math.Float64bits(want.Response.Mean()) ||
			math.Float64bits(got.Elapsed) != math.Float64bits(want.Elapsed) {
			t.Fatalf("rep %d: batch result differs from standalone run with ReplicationSeed", rep)
		}
	}
	// And the streams must actually differ between replications.
	if math.Float64bits(res.Metrics[0].Response.Mean()) == math.Float64bits(res.Metrics[1].Response.Mean()) {
		t.Fatal("replications 0 and 1 produced identical means: RNG streams not separated")
	}
}

// TestPoolMeansPermutationInvariant is the kill/resume-style guarantee:
// pooled CIs are bit-identical under any ordering of the replication
// means, so a resumed batch that finishes replications in a different
// order reports the same interval.
func TestPoolMeansPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 34))
	means := make([]float64, 9)
	for i := range means {
		means[i] = rng.NormFloat64()*0.3 + 4.2
	}
	want, err := stats.PoolMeans(means)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		perm := make([]float64, len(means))
		for i, p := range rng.Perm(len(means)) {
			perm[i] = means[p]
		}
		got, err := stats.PoolMeans(perm)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) ||
			math.Float64bits(got.StdErr) != math.Float64bits(want.StdErr) ||
			math.Float64bits(got.HalfWidth) != math.Float64bits(want.HalfWidth) {
			t.Fatalf("trial %d: pooled CI not permutation-invariant:\ngot  %+v\nwant %+v", trial, got, want)
		}
	}
}

// TestPoolMeansValues pins the pooled interval against a hand
// calculation.
func TestPoolMeansValues(t *testing.T) {
	p, err := stats.PoolMeans([]float64{2, 4, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if p.Reps != 4 || math.Abs(p.Mean-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", p.Mean)
	}
	// Sample variance of {2,4,6,8} is 20/3; stderr = sqrt(20/3/4).
	wantSE := math.Sqrt(20.0 / 3 / 4)
	if math.Abs(p.StdErr-wantSE) > 1e-12 {
		t.Fatalf("stderr = %v, want %v", p.StdErr, wantSE)
	}
	// df = 3 -> t = 3.182.
	if math.Abs(p.HalfWidth-3.182*wantSE) > 1e-9 {
		t.Fatalf("halfwidth = %v, want %v", p.HalfWidth, 3.182*wantSE)
	}
	if _, err := stats.PoolMeans(nil); err == nil {
		t.Fatal("expected error pooling zero means")
	}
	one, err := stats.PoolMeans([]float64{3.5})
	if err != nil || one.HalfWidth != 0 { //vet:allow floatcmp: single replication has exactly zero width
		t.Fatalf("single-rep pool: %+v, %v", one, err)
	}
}

// TestReplicationErrors covers the config validation paths.
func TestReplicationErrors(t *testing.T) {
	rc := repConfig(1)
	rc.Reps = 0
	if _, err := sim.RunReplications(rc); err == nil {
		t.Fatal("expected error for Reps=0")
	}
	rc = repConfig(1)
	rc.NewSource = nil
	if _, err := sim.RunReplications(rc); err == nil {
		t.Fatal("expected error for nil NewSource")
	}
}
