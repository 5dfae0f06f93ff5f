// pepa derives and solves a PEPA model: it parses a specification in
// Workbench-like syntax, derives the reachable CTMC, solves for the
// stationary distribution, and prints state counts, action
// throughputs and (optionally) the per-state probabilities.
//
// Usage:
//
//	pepa model.pepa
//	pepa -states model.pepa        # also dump the stationary vector
//	pepa -tag                      # solve the built-in Figure 3 model
//	pepa -lint model.pepa          # static checks only, no derivation
//	pepa -lint -json model.pepa    # ... as a pepatags/pepalint/v1 report
//	pepa -lump model.pepa          # report the lumped quotient size
//	pepa -workers 8 model.pepa     # parallel derivation
//	pepa -solver gth model.pepa    # force a solver: auto|gth
//	pepa -stats model.pepa         # derivation/solver statistics on stderr
//	pepa -manifest run.json ...    # machine-readable run record
//	pepa -trace trace.json ...     # Chrome trace of the pipeline spans
//	pepa -debug-addr :6060 ...     # pprof/expvar/metrics/events HTTP endpoint
//	pepa -progress ...             # periodic progress lines on stderr
//	pepa -events run.jsonl ...     # JSON-lines structured event log
//	echo '...' | pepa -            # read from stdin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"pepatags/internal/core"
	"pepatags/internal/ctmc"
	"pepatags/internal/linalg"
	"pepatags/internal/obsv"
	"pepatags/internal/pepa"
	"pepatags/internal/pepa/analysis"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("pepa", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dumpStates = fs.Bool("states", false, "print the full stationary vector")
		maxStates  = fs.Int("max-states", pepa.DefaultMaxStates, "state-space cap")
		tag        = fs.Bool("tag", false, "use the built-in Figure 3 TAG model (lambda=5, mu=10, t=42, n=6, K=10)")
		lump       = fs.Bool("lump", false, "report the exactly-lumped quotient size")
		lintOnly   = fs.Bool("lint", false, "run the static checks and stop without deriving")
		jsonOut    = fs.Bool("json", false, "with -lint, emit a pepatags/pepalint/v1 JSON report")
		echo       = fs.Bool("echo", false, "pretty-print the parsed model before solving")
		level      = fs.String("level", "", "report E[level] of a leaf: <leafIndex>:<derivativePrefix>, e.g. 1:QA")
		workers    = fs.Int("workers", 1, "worker goroutines for derivation (-1 = one per CPU)")
		stats      = fs.Bool("stats", false, "print derivation/solver statistics and the pipeline span tree to stderr")
		solver     = fs.String("solver", "auto", "steady-state solver: auto (the linalg.SteadyState cascade) or gth")
		manifest   = fs.String("manifest", "", "write a JSON run manifest to this path")
		tracePath  = fs.String("trace", "", "write a Chrome trace-event JSON of the pipeline spans to this path")
		debugAddr  = fs.String("debug-addr", "", "serve pprof/expvar/metrics/events on this address (e.g. :6060) for the duration of the run")
		events     = fs.String("events", "", "write JSON-lines structured events to this file")
		progress   = fs.Bool("progress", false, "print periodic progress lines (states/sec, frontier, residual) to stderr")
		progressIv = fs.Duration("progress-interval", obsv.DefaultHeartbeatInterval, "interval between -progress lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	// Observability plumbing. The registry and span tree are cheap, so
	// they are always on; the flags only control where they end up.
	reg := obsv.NewRegistry()
	instrumented := *manifest != "" || *tracePath != "" || *stats
	root := obsv.NewSpan("pepa")
	defer root.End()
	tele, err := obsv.StartTelemetry(obsv.TelemetryOptions{
		Registry:         reg,
		EventsPath:       *events,
		Progress:         *progress,
		ProgressInterval: *progressIv,
		DebugAddr:        *debugAddr,
		Stderr:           stderr,
		ForceLog:         *manifest != "",
	})
	if err != nil {
		return err
	}
	// On failure, dump the flight recorder and persist it (with the
	// error) into the manifest, so a dead run still leaves a record.
	failManifest := *manifest
	defer func() {
		if err != nil {
			tele.Fail("pepa", err, failManifest, args)
		}
		tele.Close()
	}()

	var src []byte
	modelName := ""
	switch {
	case *tag:
		src = []byte(core.NewTAGExp(5, 10, 42, 6, 10, 10).PEPASource())
		modelName = "builtin:tag"
	case fs.NArg() == 1 && fs.Arg(0) == "-":
		src, err = io.ReadAll(stdin)
		modelName = "stdin"
	case fs.NArg() == 1:
		src, err = os.ReadFile(fs.Arg(0))
		modelName = fs.Arg(0)
	default:
		return fmt.Errorf("usage: pepa [-lint [-json]] [-states] [-lump] [-echo] [-tag] [-workers n] [-solver s] [-stats] [-manifest f] [-trace f] [-debug-addr a] [-events f] [-progress] <model.pepa | ->")
	}
	if err != nil {
		return err
	}

	if *lintOnly {
		// runLint writes its own manifest carrying the findings; a lint
		// failure must not clobber it with a bare failure manifest.
		failManifest = ""
		return runLint(modelName, string(src), *jsonOut, *manifest, args, stdout)
	}

	parseSpan := root.Child("parse")
	model, err := pepa.ParseFile(modelName, string(src))
	parseSpan.End()
	if err != nil {
		return err
	}
	if *echo {
		fmt.Fprint(stdout, model.Source())
	}
	if err := model.CheckCyclic(); err != nil {
		fmt.Fprintf(stderr, "warning: %v\n", err)
	}

	deriveSpan := root.Child("derive")
	dopts := pepa.DeriveOptions{
		MaxStates: *maxStates, Workers: *workers, Span: deriveSpan, Metrics: reg,
		Events: tele.Log, Progress: tele.Heartbeat.ObserveProgress,
	}
	var dstats obsv.DeriveStats
	if instrumented {
		dopts.Stats = &dstats
	}
	ss, err := pepa.Derive(model, dopts)
	deriveSpan.End()
	if *stats && dstats.States > 0 {
		fmt.Fprintln(stderr, dstats.String())
	}
	if err != nil {
		return err
	}
	c := ss.Chain
	fmt.Fprintf(stdout, "states: %d\ntransitions: %d\nsequential components: %d\n",
		c.NumStates(), c.NumTransitions(), ss.NumLeaf)
	if err := c.CheckIrreducible(); err != nil {
		fmt.Fprintf(stderr, "warning: %v\n", err)
	}

	sopts := linalg.Options{Metrics: reg, Events: tele.Log, Progress: tele.Heartbeat.ObserveProgress}
	var sstats obsv.SolveStats
	if instrumented {
		sopts.Stats = &sstats
	}
	solveSpan := root.Child("solve")
	pi, err := solveSteady(c, *solver, sopts)
	solveSpan.End()
	if *stats && sstats.Solver != "" {
		fmt.Fprintln(stderr, sstats.String())
	}
	if err != nil {
		return err
	}

	measures := make(map[string]float64)
	measureSpan := root.Child("measures")
	if *lump {
		if _, q, err := c.Lump(make(ctmc.Partition, c.NumStates())); err == nil {
			fmt.Fprintf(stdout, "lumped quotient: %d states\n", q.NumStates())
		} else {
			fmt.Fprintf(stderr, "lumping failed: %v\n", err)
		}
	}
	if *level != "" {
		var leaf int
		var prefix string
		if _, err := fmt.Sscanf(*level, "%d:%s", &leaf, &prefix); err != nil {
			measureSpan.End()
			return fmt.Errorf("bad -level %q (want leaf:prefix): %w", *level, err)
		}
		l, err := ss.LevelExpectation(pi, leaf, prefix)
		if err != nil {
			measureSpan.End()
			return err
		}
		fmt.Fprintf(stdout, "mean level of leaf %d (%s*): %.8g\n", leaf, prefix, l)
		measures[fmt.Sprintf("mean_level.%d.%s", leaf, prefix)] = l
	}
	fmt.Fprintln(stdout, "action throughputs:")
	for _, a := range c.Actions() {
		x := c.ActionThroughput(pi, a)
		fmt.Fprintf(stdout, "  %-16s %.8g\n", a, x)
		measures["throughput."+a] = x
	}
	if *dumpStates {
		fmt.Fprintln(stdout, "stationary distribution:")
		for i := 0; i < c.NumStates(); i++ {
			fmt.Fprintf(stdout, "  %.10g  %s\n", pi[i], c.Label(i))
		}
	}
	measureSpan.End()
	root.End()

	if *stats {
		root.WriteTree(stderr)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := root.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *manifest != "" {
		m := obsv.NewManifest("pepa")
		m.Args = args
		m.Model = modelName
		m.Solver = *solver
		m.Workers = *workers
		m.Derive = &dstats
		if sstats.Solver != "" {
			m.Solve = &sstats
		}
		m.Measures = measures
		m.Metrics = reg.Snapshot()
		m.Events = tele.Record()
		rec := root.Record()
		m.Trace = &rec
		if err := m.WriteFile(*manifest); err != nil {
			return err
		}
	}
	return nil
}

// runLint is the -lint mode: static checks only, no derivation. The
// findings go to stdout (text or JSON) and, when -manifest is also
// given, into a run manifest as an obsv.LintRecord. Error-severity
// findings make the run fail; warnings alone do not.
func runLint(modelName, src string, jsonOut bool, manifestPath string, args []string, stdout io.Writer) error {
	results := []analysis.FileResult{{File: modelName, Diags: analysis.LintSource(modelName, src)}}
	if jsonOut {
		if err := analysis.WriteJSON(stdout, results); err != nil {
			return err
		}
	} else {
		analysis.WriteText(stdout, results)
	}
	errs, warns := analysis.Count(results)
	if manifestPath != "" {
		m := obsv.NewManifest("pepa")
		m.Args = args
		m.Model = modelName
		rec := &obsv.LintRecord{Errors: errs, Warnings: warns}
		for _, d := range results[0].Diags {
			rec.Diags = append(rec.Diags, obsv.LintDiag{
				Rule:     d.Rule,
				Severity: d.Severity.String(),
				File:     d.Pos.File,
				Line:     d.Pos.Line,
				Msg:      d.Msg,
			})
		}
		m.Lint = rec
		if err := m.WriteFile(manifestPath); err != nil {
			return err
		}
	}
	if errs > 0 {
		return fmt.Errorf("pepa: lint found %d error(s)", errs)
	}
	return nil
}

// solveSteady dispatches on the -solver flag. See the "Choosing a
// solver" section of README.md for when each wins.
func solveSteady(c *ctmc.Chain, solver string, opts linalg.Options) ([]float64, error) {
	switch solver {
	case "auto":
		return linalg.SteadyState(c.Generator(), opts)
	case "gth":
		return linalg.SteadyStateGTHSparse(c.Generator(), opts)
	default:
		return nil, fmt.Errorf("unknown -solver %q (want auto or gth)", solver)
	}
}
