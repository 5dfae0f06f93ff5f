package pepatags_test

// One benchmark per reproduced artefact (figures 6-12 and the
// state-space, approximation, fluid and burstiness tables), plus
// kernel benchmarks for the substrates (PEPA derivation, steady-state
// solvers, simulator event loop). The figure benchmarks run the same
// runners as cmd/tagseval on trimmed grids; `go run ./cmd/tagseval
// -all` regenerates the full-resolution tables recorded in
// EXPERIMENTS.md.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pepatags/internal/core"
	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
	"pepatags/internal/exp"
	"pepatags/internal/linalg"
	"pepatags/internal/obsv"
	"pepatags/internal/pepa"
	"pepatags/internal/policies"
	"pepatags/internal/sim"
	"pepatags/internal/workload"
)

func benchFigure(b *testing.B, run func(exp.Params) (*obsv.Figure, error)) {
	b.Helper()
	p := exp.ShortParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := run(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure6(b *testing.B)  { benchFigure(b, exp.Figure6) }
func BenchmarkFigure7(b *testing.B)  { benchFigure(b, exp.Figure7) }
func BenchmarkFigure8(b *testing.B)  { benchFigure(b, exp.Figure8) }
func BenchmarkFigure9(b *testing.B)  { benchFigure(b, exp.Figure9) }
func BenchmarkFigure10(b *testing.B) { benchFigure(b, exp.Figure10) }
func BenchmarkFigure11(b *testing.B) { benchFigure(b, exp.Figure11) }
func BenchmarkFigure12(b *testing.B) { benchFigure(b, exp.Figure12) }

func BenchmarkStateSpaceTable(b *testing.B) { benchFigure(b, exp.StateSpaceTable) }
func BenchmarkApproxTable(b *testing.B)     { benchFigure(b, exp.ApproxTable) }
func BenchmarkFluidTable(b *testing.B)      { benchFigure(b, exp.FluidTable) }

func BenchmarkBurstyTable(b *testing.B) {
	p := exp.ShortParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.BurstyTable(p, 30000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSlowdownTable(b *testing.B) {
	p := exp.ShortParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.SlowdownTable(p, 30000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate kernels ---

// BenchmarkTAGExpBuild measures reachable-state derivation of the
// 4331-state Figure 3 model.
func BenchmarkTAGExpBuild(b *testing.B) {
	m := core.NewTAGExp(5, 10, 42, 6, 10, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := m.Build(); c.NumStates() != 4331 {
			b.Fatal("wrong state count")
		}
	}
}

// BenchmarkSkeleton times a cold skeleton derivation (layer
// core.skeleton, as perfbench names it): TAGExp at n = 4, K = 10, the
// largest shape of perfbench's pepad-mix jobs, and at n = 6, K = 10,
// the 4331-state Figure 8 shape, and TAGH2 at 9801 states.
func BenchmarkSkeleton(b *testing.B) {
	for _, c := range []struct {
		name   string
		m      core.SkeletonModel
		states int
	}{
		{"tagexp-n=4", core.NewTAGExp(5, 10, 28, 4, 10, 10), 2091},
		{"tagexp-n=6", core.NewTAGExp(5, 10, 42, 6, 10, 10), 4331},
		{"tagh2-9801", core.NewTAGH2(11, dist.H2ForTAG(0.1, 0.99, 100), 12, 6, 10, 10), 9801},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if sk := c.m.Skeleton(); sk.NumStates() != c.states {
					b.Fatalf("%d states, want %d", sk.NumStates(), c.states)
				}
			}
		})
	}
}

// BenchmarkTAGExpSolve measures a full build + steady-state solve +
// measures pass.
func BenchmarkTAGExpSolve(b *testing.B) {
	m := core.NewTAGExp(5, 10, 42, 6, 10, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPEPADerive measures the generic engine on the generated
// Figure 3 source (parse + derive).
func BenchmarkPEPADerive(b *testing.B) {
	src := core.NewTAGExp(5, 10, 42, 6, 10, 10).PEPASource()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := pepa.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		ss, err := pepa.Derive(m, pepa.DeriveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if ss.Chain.NumStates() != 4331 {
			b.Fatal("wrong state count")
		}
	}
}

// BenchmarkGenerator times generator assembly (layer ctmc.generator,
// as perfbench names it) on the chains of perfbench's pepa-derive
// models: each PEPA text is derived once, then every op assembles the
// generator of a fresh chain over the derived transitions.
func BenchmarkGenerator(b *testing.B) {
	for _, c := range []struct {
		name string
		src  string
	}{
		{"tagexp-K=28", core.NewTAGExp(5, 10, 42, 6, 28, 28).PEPASource()},
		{"tagexp-K=40", core.NewTAGExp(5, 10, 42, 6, 40, 40).PEPASource()},
		{"tagh2-K=10", core.NewTAGH2(5, dist.H2ForTAG(0.1, 0.99, 100), 42, 6, 10, 10).PEPASource()},
	} {
		b.Run(c.name, func(b *testing.B) {
			m, err := pepa.Parse(c.src)
			if err != nil {
				b.Fatal(err)
			}
			ss, err := pepa.Derive(m, pepa.DeriveOptions{})
			if err != nil {
				b.Fatal(err)
			}
			labels := make([]string, ss.Chain.NumStates())
			for i := range labels {
				labels[i] = ss.Chain.Label(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ch := ctmc.NewChain(labels, ss.Chain.Transitions())
				b.StartTimer()
				if ch.Generator().Rows != len(labels) {
					b.Fatal("wrong generator size")
				}
			}
		})
	}
}

// BenchmarkSteadyStateGTH times the direct stage: SteadyStateGTH on a
// dense 400-state birth-death chain (birthdeath-400), and
// linalg.SteadyState on the 357-state TAGExp chain of n = 4, K = 4,
// which its GTH stage answers (tagexp-357).
func BenchmarkSteadyStateGTH(b *testing.B) {
	b.Run("birthdeath-400", func(b *testing.B) {
		const k = 399
		coo := linalg.NewCOO(k+1, k+1)
		for i := 0; i <= k; i++ {
			var out float64
			if i < k {
				coo.Add(i, i+1, 5)
				out += 5
			}
			if i > 0 {
				coo.Add(i, i-1, 10)
				out += 10
			}
			coo.Add(i, i, -out)
		}
		q := coo.ToCSR().ToDense()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := linalg.SteadyStateGTH(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tagexp-357", func(b *testing.B) {
		q := core.NewTAGExp(5, 10, 20, 4, 4, 4).Build().Generator()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := linalg.SteadyState(q, linalg.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSteadyStateGaussSeidel solves the 4331-state TAG generator
// iteratively.
func BenchmarkSteadyStateGaussSeidel(b *testing.B) {
	q := core.NewTAGExp(5, 10, 42, 6, 10, 10).Build().Generator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.SteadyStateGaussSeidel(q, linalg.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyState times the automatic cascade, that is its
// ILU(0)-preconditioned BiCGSTAB stage, from a cold start on the
// 4331-state Figure 3 chain and on the stiff 9801-state H2 chain of
// Figure 9 at effective timeout rate 0.5 (t = 3, n = 6), where
// Gauss–Seidel needs 7531 sweeps. iters/op comes from the solve's
// stats.
func BenchmarkSteadyState(b *testing.B) {
	for _, c := range []struct {
		name string
		m    interface{ Build() *ctmc.Chain }
	}{
		{"tagexp-4331", core.NewTAGExp(5, 10, 42, 6, 10, 10)},
		{"tagh2-9801", core.NewTAGH2(11, dist.H2ForTAG(0.1, 0.99, 100), 3, 6, 10, 10)},
	} {
		b.Run(c.name, func(b *testing.B) {
			q := c.m.Build().Generator()
			var st obsv.SolveStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := linalg.SteadyState(q, linalg.Options{Stats: &st}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Iterations), "iters/op")
		})
	}
}

// BenchmarkSimulatorTAG measures simulator throughput (events/op is
// roughly jobs * 2.2 for this configuration).
func BenchmarkSimulatorTAG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{
			Nodes: []sim.NodeConfig{
				{Capacity: 10, Timeout: policies.ConstantTimeout(0.35)},
				{Capacity: 10},
			},
			Policy: policies.FirstNode{},
			Source: &workload.StochasticSource{
				Arrivals: workload.NewPoisson(8),
				Sizes:    dist.H2ForTAG(0.1, 0.99, 100),
				Limit:    50000,
			},
			Seed: uint64(i + 1),
		}
		m := sim.NewSystem(cfg).Run(0)
		if m.Completed == 0 {
			b.Fatal("no completions")
		}
	}
}

// BenchmarkH2Solve measures the hyper-exponential model (9801 states).
func BenchmarkH2Solve(b *testing.B) {
	m := core.NewTAGH2(11, dist.H2ForTAG(0.1, 0.99, 100), 12, 6, 10, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- serial vs parallel derivation, and the solvers ---
//
// The BenchmarkDerive* family compares the serial reference path
// against the worker-pool paths on the paper's three models at growing
// queue bounds. Run with -cpu to vary GOMAXPROCS; the parallel
// variants only pay off with real cores behind them. The solvers are
// serial.

// benchDerive parses once, then times derivation at each worker count.
func benchDerive(b *testing.B, src string, workerCounts ...int) {
	b.Helper()
	m, err := pepa.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := pepa.Derive(m, pepa.DeriveOptions{})
	if err != nil {
		b.Fatal(err)
	}
	want := ref.Chain.NumStates()
	for _, w := range workerCounts {
		name := "serial"
		if w > 1 {
			name = fmt.Sprintf("workers=%d", w)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ss, err := pepa.Derive(m, pepa.DeriveOptions{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if ss.Chain.NumStates() != want {
					b.Fatalf("state count %d != %d", ss.Chain.NumStates(), want)
				}
			}
		})
	}
}

// randomAllocSource generates the Appendix A random-allocation model
// (two independent M/M/1/N queues) at queue bound n.
func randomAllocSource(n int) string {
	var sb strings.Builder
	sb.WriteString("l1 = 2.5;\nl2 = 2.5;\nmu = 10;\n")
	for _, q := range []struct{ name, arr, srv string }{
		{"QA", "arrival1", "service1"}, {"QB", "arrival2", "service2"},
	} {
		for i := 0; i <= n; i++ {
			fmt.Fprintf(&sb, "%s%d = ", q.name, i)
			switch {
			case i == 0:
				fmt.Fprintf(&sb, "(%s, l1).%s1;\n", q.arr, q.name)
			case i == n:
				fmt.Fprintf(&sb, "(%s, mu).%s%d;\n", q.srv, q.name, i-1)
			default:
				fmt.Fprintf(&sb, "(%s, l1).%s%d + (%s, mu).%s%d;\n", q.arr, q.name, i+1, q.srv, q.name, i-1)
			}
		}
	}
	sb.WriteString("QA0 || QB0\n")
	return sb.String()
}

func BenchmarkDeriveTAG(b *testing.B) {
	for _, k := range []int{10, 20, 28, 40} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			benchDerive(b, core.NewTAGExp(5, 10, 42, 6, k, k).PEPASource(), 1, 2, 4, 8)
		})
	}
}

// BenchmarkDeriveTAGReference times the legacy string-keyed serial
// engine (DeriveOptions.Reference) on the same models as
// BenchmarkDeriveTAG, so one bench run captures the integer-coded
// engine's speedup without checking out an old commit.
func BenchmarkDeriveTAGReference(b *testing.B) {
	for _, k := range []int{10, 20, 28, 40} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			m, err := pepa.Parse(core.NewTAGExp(5, 10, 42, 6, k, k).PEPASource())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pepa.Derive(m, pepa.DeriveOptions{Reference: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDeriveRandom(b *testing.B) {
	for _, n := range []int{50, 150} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			benchDerive(b, randomAllocSource(n), 1, 4)
		})
	}
}

func BenchmarkDeriveShortestQueue(b *testing.B) {
	src, err := os.ReadFile(filepath.Join("models", "appendixB_shortestqueue.pepa"))
	if err != nil {
		b.Fatal(err)
	}
	benchDerive(b, string(src), 1, 4)
}

// BenchmarkSteadyPower times power iteration on the K=20 TAG chain.
// The sub-benchmark keeps the name of its BENCH_derive.json row.
func BenchmarkSteadyPower(b *testing.B) {
	q := core.NewTAGExp(5, 10, 42, 6, 20, 20).Build().Generator()
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := linalg.SteadyStatePower(q, linalg.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMultiNodeTable(b *testing.B) { benchFigure(b, exp.MultiNodeTable) }

// BenchmarkPassageTable uses a reduced configuration (N=3, K=6:
// 475-state TAG chains). Its hitting-time systems of up to
// linalg.DenseCutoff unknowns are dense LU solves, the larger ones go
// to the ILU(0)-preconditioned BiCGSTAB kernel.
func BenchmarkPassageTable(b *testing.B) {
	p := exp.ShortParams()
	p.N, p.K = 3, 6
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.PassageTable(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkErlangErrorTable(b *testing.B) {
	p := exp.ShortParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.ErlangErrorTable(p, 60000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFairnessTable(b *testing.B) { benchFigure(b, exp.FairnessTable) }

func BenchmarkTaggedTable(b *testing.B) {
	p := exp.ShortParams()
	p.N, p.K = 4, 8 // keep the absorbing chains modest per iteration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.TaggedTable(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVariantsTable(b *testing.B)    { benchFigure(b, exp.VariantsTable) }
func BenchmarkSensitivityTable(b *testing.B) { benchFigure(b, exp.SensitivityTable) }

// --- metrics-registry overhead ---
//
// The *Metrics variants rerun the derive / solve / simulate kernels
// with an obsv.Registry attached; comparing them against the plain
// benchmarks above measures the observability overhead (documented in
// EXPERIMENTS.md; the acceptance bar is < 5%).

func BenchmarkPEPADeriveMetrics(b *testing.B) {
	src := core.NewTAGExp(5, 10, 42, 6, 10, 10).PEPASource()
	reg := obsv.NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := pepa.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		ss, err := pepa.Derive(m, pepa.DeriveOptions{Metrics: reg})
		if err != nil {
			b.Fatal(err)
		}
		if ss.Chain.NumStates() != 4331 {
			b.Fatal("wrong state count")
		}
	}
}

func BenchmarkSteadyStateGaussSeidelMetrics(b *testing.B) {
	q := core.NewTAGExp(5, 10, 42, 6, 10, 10).Build().Generator()
	reg := obsv.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.SteadyStateGaussSeidel(q, linalg.Options{Metrics: reg}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorTAGMetrics(b *testing.B) {
	reg := obsv.NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{
			Nodes: []sim.NodeConfig{
				{Capacity: 10, Timeout: policies.ConstantTimeout(0.35)},
				{Capacity: 10},
			},
			Policy: policies.FirstNode{},
			Source: &workload.StochasticSource{
				Arrivals: workload.NewPoisson(8),
				Sizes:    dist.H2ForTAG(0.1, 0.99, 100),
				Limit:    50000,
			},
			Seed:    uint64(i + 1),
			Metrics: reg,
		}
		m := sim.NewSystem(cfg).Run(0)
		if m.Completed == 0 {
			b.Fatal("no completions")
		}
	}
}

// BenchmarkPEPADeriveTelemetry reruns the derivation kernel with the
// full CLI telemetry plane attached — registry, rate-limited event log
// draining to a discard sink, and progress callback — so the bench
// family brackets the cost of everything `-events -progress` turns on.
func BenchmarkPEPADeriveTelemetry(b *testing.B) {
	src := core.NewTAGExp(5, 10, 42, 6, 10, 10).PEPASource()
	reg := obsv.NewRegistry()
	log := obsv.NewEventLog(obsv.EventLogConfig{
		Sink:        io.Discard,
		MinInterval: obsv.DefaultCLIMinInterval,
	})
	defer log.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := pepa.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		ss, err := pepa.Derive(m, pepa.DeriveOptions{
			Metrics:  reg,
			Events:   log,
			Progress: func(obsv.Progress) {},
		})
		if err != nil {
			b.Fatal(err)
		}
		if ss.Chain.NumStates() != 4331 {
			b.Fatal("wrong state count")
		}
	}
}
