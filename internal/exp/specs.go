package exp

import (
	"fmt"

	"pepatags/internal/obsv"
	"pepatags/internal/sweep"
)

// Declarative sweep specs for the paper figures. Each figure runner in
// runners.go executes the spec through the sweep engine; `tagseval
// -spec-dump <figure>` emits the same spec as JSON, and `tagseval
// -sweep <file>` runs an edited copy — so every figure doubles as a
// template for user-designed sweeps (see docs/SWEEPS.md).

// SweepFigureIDs lists the figures that are defined as sweep specs.
func SweepFigureIDs() []string {
	return []string{"figure6", "figure7", "figure8", "figure9", "figure10", "figure11", "figure12"}
}

func expService(mu float64) sweep.ServiceSpec {
	return sweep.ServiceSpec{Kind: "exp", Mu: mu}
}

func h2Service(mean, alpha, ratio float64) sweep.ServiceSpec {
	return sweep.ServiceSpec{Kind: "h2", Mean: mean, Alpha: alpha, Ratio: ratio}
}

// SweepSpec returns the declarative sweep behind a built-in figure at
// the given parameters.
func SweepSpec(id string, p Params) (*sweep.Spec, error) {
	switch id {
	case "figure6", "figure7":
		return figure67Spec(id, p), nil
	case "figure8":
		return figure8Spec(p), nil
	case "figure9", "figure10":
		return figure910Spec(id, p), nil
	case "figure11", "figure12":
		return figure1112Spec(id, p), nil
	default:
		return nil, fmt.Errorf("exp: no sweep spec for %q", id)
	}
}

// figure67Spec sweeps the exponential TAG model over the timeout-rate
// grid at lambda = 5, with the flat random and shortest-queue
// baselines broadcast across the x axis. Figure 6 plots queue lengths,
// Figure 7 response times.
func figure67Spec(id string, p Params) *sweep.Spec {
	const lambda = 5
	s := &sweep.Spec{
		Schema: sweep.SpecSchema,
		Name:   id,
		Groups: []sweep.Group{{
			Point: sweep.Point{
				Series: "tag", Model: "tagexp",
				Lambda: lambda, N: p.N, K1: p.K, K2: p.K,
				Service: expService(p.Mu),
			},
			Axes: []sweep.Axis{{Field: "eff", Values: p.Rates}},
		}},
		Points: []sweep.Point{
			{Series: "random", Model: "random", Lambda: lambda, K1: p.K, Service: expService(p.Mu)},
			{Series: "sq", Model: "shortest-queue", Lambda: lambda, K1: p.K, Service: expService(p.Mu)},
		},
	}
	if id == "figure6" {
		s.Figure = &sweep.FigureSpec{
			ID:     "figure6",
			Title:  "Average queue length vs timeout rate (lambda=5, mu=10)",
			XLabel: "timeout-rate",
			YLabel: "mean queue length",
			Series: []sweep.SeriesSpec{
				{Name: "TAG-total", From: "tag", Measure: "L"},
				{Name: "TAG-queue1", From: "tag", Measure: "L1"},
				{Name: "TAG-queue2", From: "tag", Measure: "L2"},
				{Name: "random", From: "random", Measure: "L", BroadcastX: "tag"},
				{Name: "shortest-queue", From: "sq", Measure: "L", BroadcastX: "tag"},
			},
			Notes: []sweep.NoteSpec{
				{Template: "TAG CTMC has %d states (paper: 4331)", Args: []string{"states:int"}, From: "tag"},
			},
		}
	} else {
		s.Figure = &sweep.FigureSpec{
			ID:     "figure7",
			Title:  "Average response time vs timeout rate (lambda=5, mu=10)",
			XLabel: "timeout-rate",
			YLabel: "mean response time",
			Series: []sweep.SeriesSpec{
				{Name: "TAG", From: "tag", Measure: "W"},
				{Name: "random", From: "random", Measure: "W", BroadcastX: "tag"},
				{Name: "shortest-queue", From: "sq", Measure: "W", BroadcastX: "tag"},
			},
		}
	}
	return s
}

// figure8Spec runs the optimal-integer-t search per load and compares
// against all three simple strategies. Every search point shares one
// model shape, so the skeleton cache pays the state-space derivation
// once for the whole grid.
func figure8Spec(p Params) *sweep.Spec {
	lambdas := []float64{5, 7, 9, 11}
	lo := p.TMin
	if lo < 12 {
		lo = 12 // the exponential optima are known to lie well above t=12
	}
	base := func(series, model string) sweep.Group {
		return sweep.Group{
			Point: sweep.Point{Series: series, Model: model, K1: p.K, Service: expService(p.Mu)},
			Axes:  []sweep.Axis{{Field: "lambda", Values: lambdas}},
		}
	}
	tag := sweep.Group{
		Point: sweep.Point{
			Series: "tag", Model: "opt-t", Metric: "min-queue",
			TLo: lo, THi: p.TMax,
			N: p.N, K1: p.K, K2: p.K, Service: expService(p.Mu),
		},
		Axes: []sweep.Axis{{Field: "lambda", Values: lambdas}},
	}
	return &sweep.Spec{
		Schema: sweep.SpecSchema,
		Name:   "figure8",
		Groups: []sweep.Group{tag, base("random", "random"), base("rr", "round-robin"), base("sq", "shortest-queue")},
		Figure: &sweep.FigureSpec{
			ID:     "figure8",
			Title:  "Average response time vs arrival rate (mu=10), TAG at optimal t",
			XLabel: "lambda",
			YLabel: "mean response time",
			Series: []sweep.SeriesSpec{
				{Name: "TAG-optimal-t", From: "tag", Measure: "W"},
				{Name: "random", From: "random", Measure: "W"},
				{Name: "round-robin", From: "rr", Measure: "W"},
				{Name: "shortest-queue", From: "sq", Measure: "W"},
			},
			Notes: []sweep.NoteSpec{
				{Template: "lambda=%g: optimal t=%d (eff rate %.3g)", Args: []string{"x", "t_opt:int", "t_opt_eff"}, From: "tag", EachPoint: true},
				{Text: "paper's optimal t: 51, 49, 45, 42 for lambda = 5, 7, 9, 11"},
				{Text: "round-robin (the paper's third simple strategy) shown for completeness"},
			},
		},
	}
}

// figure910Spec sweeps the H2 TAG model (alpha = 0.99, mu1 = 100 mu2)
// over the wide timeout grid at lambda = 11. Figure 9 plots response
// time (random allocation is off scale and appears as a note), Figure
// 10 throughput.
func figure910Spec(id string, p Params) *sweep.Spec {
	const lambda = 11
	svc := h2Service(0.1, 0.99, 100)
	s := &sweep.Spec{
		Schema: sweep.SpecSchema,
		Name:   id,
		Groups: []sweep.Group{{
			Point: sweep.Point{
				Series: "tag", Model: "tagh2",
				Lambda: lambda, N: p.N, K1: p.K, K2: p.K, Service: svc,
			},
			Axes: []sweep.Axis{{Field: "eff", Values: p.RatesH2}},
		}},
		Points: []sweep.Point{
			{Series: "sq", Model: "shortest-queue", Lambda: lambda, K1: p.K, Service: svc},
		},
	}
	if id == "figure9" {
		s.Points = append(s.Points,
			sweep.Point{Series: "random", Model: "random", Lambda: lambda, K1: p.K, Service: svc})
		s.Figure = &sweep.FigureSpec{
			ID:     "figure9",
			Title:  "Average response time vs timeout rate (lambda=11, H2: alpha=0.99, mu1=100mu2)",
			XLabel: "timeout-rate",
			YLabel: "mean response time",
			Series: []sweep.SeriesSpec{
				{Name: "TAG", From: "tag", Measure: "W"},
				{Name: "shortest-queue", From: "sq", Measure: "W", BroadcastX: "tag"},
			},
			Notes: []sweep.NoteSpec{
				{Template: "random allocation W = %.3g (off scale, paper: W > 1)", Args: []string{"W"}, From: "random"},
			},
		}
	} else {
		s.Figure = &sweep.FigureSpec{
			ID:     "figure10",
			Title:  "Throughput vs timeout rate (lambda=11, H2: alpha=0.99, mu1=100mu2)",
			XLabel: "timeout-rate",
			YLabel: "throughput",
			Series: []sweep.SeriesSpec{
				{Name: "TAG", From: "tag", Measure: "throughput"},
				{Name: "shortest-queue", From: "sq", Measure: "throughput", BroadcastX: "tag"},
			},
		}
	}
	return s
}

// figure1112Spec runs the coarse optimal-t search per H2 branching
// probability (mean 0.1, mu1 = 10 mu2) against the baselines. Figure
// 11 optimises and plots response time, Figure 12 throughput.
func figure1112Spec(id string, p Params) *sweep.Spec {
	const lambda = 11
	metric, measure := "min-response", "W"
	title, ylabel := "Average response time vs proportion of short jobs (lambda=11, mu1=10mu2)", "mean response time"
	if id == "figure12" {
		metric, measure = "max-throughput", "throughput"
		title, ylabel = "Throughput vs proportion of short jobs (lambda=11, mu1=10mu2)", "throughput"
	}
	alphaAxis := []sweep.Axis{{Field: "alpha", Values: p.Alphas}}
	svc := h2Service(0.1, 0, 10) // alpha filled per point by the axis
	return &sweep.Spec{
		Schema: sweep.SpecSchema,
		Name:   id,
		Groups: []sweep.Group{
			{
				Point: sweep.Point{
					Series: "tag", Model: "opt-t", Metric: metric,
					TLo: p.TMin, THi: p.TMax, TStep: p.TStep,
					Lambda: lambda, N: p.N, K1: p.K, K2: p.K, Service: svc,
				},
				Axes: alphaAxis,
			},
			{
				Point: sweep.Point{Series: "random", Model: "random", Lambda: lambda, K1: p.K, Service: svc},
				Axes:  alphaAxis,
			},
			{
				Point: sweep.Point{Series: "sq", Model: "shortest-queue", Lambda: lambda, K1: p.K, Service: svc},
				Axes:  alphaAxis,
			},
		},
		Figure: &sweep.FigureSpec{
			ID:     id,
			Title:  title,
			XLabel: "alpha",
			YLabel: ylabel,
			Series: []sweep.SeriesSpec{
				{Name: "TAG-optimal-t", From: "tag", Measure: measure},
				{Name: "random", From: "random", Measure: measure},
				{Name: "shortest-queue", From: "sq", Measure: measure},
			},
			Notes: []sweep.NoteSpec{
				{Template: "alpha=%.2f: optimal t=%d", Args: []string{"x", "t_opt:int"}, From: "tag", EachPoint: true},
			},
		},
	}
}

// runFigureSweep runs a figure's sweep spec through the engine and
// assembles the result table: the common body of the Figure6-12
// runners.
func runFigureSweep(id string, p Params) (*obsv.Figure, error) {
	spec, err := SweepSpec(id, p)
	if err != nil {
		return nil, err
	}
	res, err := sweep.Run(spec, sweep.Options{Workers: p.Workers})
	if err != nil {
		return nil, err
	}
	return sweep.Assemble(spec, res)
}
