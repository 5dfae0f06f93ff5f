// tagseval regenerates the paper's numerical results: every figure of
// the evaluation section plus the state-space, approximation, fluid,
// burstiness, slowdown, multi-node, first-passage, Erlang-error,
// fairness and tagged-percentile tables.
//
// Usage:
//
//	tagseval -fig figure6            # one artefact
//	tagseval -all                    # everything
//	tagseval -all -short             # trimmed grids (fast)
//	tagseval -fig figure9 -csv       # CSV instead of a text table
//	tagseval -fig statespace -workers 8  # parallel PEPA derivation
//	tagseval -all -stats             # per-artefact wall time on stderr
//	tagseval -fig figure6 -manifest run.json  # machine-readable record
//	tagseval -all -debug-addr :6060  # pprof/expvar while the sweep runs
//
// Batch sweeps (docs/SWEEPS.md):
//
//	tagseval -spec-dump figure8 > f8.json     # the spec behind a figure
//	tagseval -sweep f8.json                   # run a spec file
//	tagseval -sweep f8.json -journal f8.jsonl # journal one row per point
//	tagseval -sweep f8.json -journal f8.jsonl -resume  # continue a killed run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"pepatags/internal/exp"
	"pepatags/internal/obsv"
	"pepatags/internal/sweep"
)

type runner func(exp.Params) (*obsv.Figure, error)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("tagseval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figName  = fs.String("fig", "", "artefact to run (see -list)")
		all      = fs.Bool("all", false, "run every artefact")
		list     = fs.Bool("list", false, "list available artefacts")
		short    = fs.Bool("short", false, "use trimmed parameter grids")
		csv      = fs.Bool("csv", false, "emit CSV instead of text tables")
		jobs     = fs.Int("jobs", 200000, "simulated jobs for the simulation tables")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		workers  = fs.Int("workers", 1, "worker goroutines for the PEPA-engine runners (-1 = one per CPU)")
		stats    = fs.Bool("stats", false, "print per-artefact wall time to stderr")
		manifest = fs.String("manifest", "", "write a JSON run manifest (one artefact record per figure/table) to this path")
		debug    = fs.String("debug-addr", "", "serve pprof/expvar/metrics/events on this address (e.g. :6060) for the duration of the run")
		progress = fs.Bool("progress", false, "print periodic progress lines (artefacts done, sweep points/sec, cache hit-rate) to stderr")
		progIv   = fs.Duration("progress-interval", obsv.DefaultHeartbeatInterval, "interval between -progress lines")
		events   = fs.String("events", "", "write JSON-lines structured events to this file")
		sweepArg = fs.String("sweep", "", "run a sweep spec file through the batch engine (see docs/SWEEPS.md)")
		specDump = fs.String("spec-dump", "", "print the sweep spec behind a built-in figure (figure6..figure12) as JSON and exit")
		journal  = fs.String("journal", "", "with -sweep: append one JSON row per completed point to this file")
		resume   = fs.Bool("resume", false, "with -sweep -journal: continue an interrupted journal instead of starting fresh")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	reg := obsv.NewRegistry()
	tele, err := obsv.StartTelemetry(obsv.TelemetryOptions{
		Registry:         reg,
		EventsPath:       *events,
		Progress:         *progress,
		ProgressInterval: *progIv,
		DebugAddr:        *debug,
		Stderr:           stderr,
		ForceLog:         *manifest != "",
	})
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tele.Fail("tagseval", err, *manifest, args)
		}
		tele.Close()
	}()

	runners := map[string]runner{
		"figure6":     exp.Figure6,
		"figure7":     exp.Figure7,
		"figure8":     exp.Figure8,
		"figure9":     exp.Figure9,
		"figure10":    exp.Figure10,
		"figure11":    exp.Figure11,
		"figure12":    exp.Figure12,
		"statespace":  exp.StateSpaceTable,
		"approx":      exp.ApproxTable,
		"fluid":       exp.FluidTable,
		"multinode":   exp.MultiNodeTable,
		"fairness":    exp.FairnessTable,
		"tagged":      exp.TaggedTable,
		"variants":    exp.VariantsTable,
		"sensitivity": exp.SensitivityTable,
		"passage":     exp.PassageTable,
		"bursty": func(p exp.Params) (*obsv.Figure, error) {
			return exp.BurstyTable(p, *jobs, *seed)
		},
		"slowdown": func(p exp.Params) (*obsv.Figure, error) {
			return exp.SlowdownTable(p, *jobs, *seed)
		},
		"erlangerror": func(p exp.Params) (*obsv.Figure, error) {
			return exp.ErlangErrorTable(p, *jobs, *seed)
		},
	}
	available := sortedKeys(runners)

	if *list {
		fmt.Fprintln(stdout, strings.Join(available, "\n"))
		return nil
	}

	p := exp.DefaultParams()
	if *short {
		p = exp.ShortParams()
	}
	p.Workers = *workers

	if *specDump != "" {
		spec, err := exp.SweepSpec(*specDump, p)
		if err != nil {
			return fmt.Errorf("%w; sweep figures: %s", err, strings.Join(exp.SweepFigureIDs(), ", "))
		}
		b, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(b))
		return nil
	}
	if *sweepArg != "" {
		return runSweep(*sweepArg, p, reg, tele, *journal, *resume, *csv, *stats, *manifest, args, stdout, stderr)
	}
	if *resume || *journal != "" {
		return fmt.Errorf("-journal and -resume only apply to -sweep runs")
	}

	var names []string
	switch {
	case *all:
		names = available
	case *figName != "":
		if _, ok := runners[*figName]; !ok {
			return fmt.Errorf("unknown artefact %q; available: %s", *figName, strings.Join(available, ", "))
		}
		names = []string{*figName}
	default:
		return fmt.Errorf("nothing to do: pass -fig <name>, -all or -list")
	}

	tele.Heartbeat.SetTotal(float64(len(names)))
	var artefacts []obsv.ArtefactRecord
	for i, n := range names {
		start := time.Now()
		f, err := runners[n](p)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		elapsed := time.Since(start)
		tele.Log.Emit(obsv.LevelInfo, "eval.artefact", n, map[string]float64{
			"elapsed_s": elapsed.Seconds(), "done": float64(i + 1), "total": float64(len(names)),
		})
		tele.Heartbeat.ObserveProgress(obsv.Progress{Phase: "eval", Step: i + 1, Count: i + 1})
		if *stats {
			fmt.Fprintf(stderr, "%s: %v (workers=%d)\n", n, elapsed.Round(time.Millisecond), *workers)
		}
		if *manifest != "" {
			artefacts = append(artefacts, obsv.ArtefactRecord{Figure: *f, ElapsedSec: elapsed.Seconds()})
		}
		var werr error
		if *csv {
			werr = f.CSV(stdout)
		} else {
			werr = f.Render(stdout)
		}
		if werr != nil {
			return fmt.Errorf("%s: %w", n, werr)
		}
		fmt.Fprintln(stdout)
	}
	if *manifest != "" {
		m := obsv.NewManifest("tagseval")
		m.Args = args
		m.Params = map[string]any{"short": *short, "jobs": *jobs, "csv": *csv}
		m.Seed = *seed
		m.Workers = *workers
		m.Artefacts = artefacts
		m.Events = tele.Record()
		if err := m.WriteFile(*manifest); err != nil {
			return err
		}
	}
	return nil
}

// runSweep executes a spec file through the batch engine: journal and
// resume handling, figure assembly when the spec has a figure section
// (raw JSON rows otherwise), and the manifest's sweep record.
func runSweep(path string, p exp.Params, reg *obsv.Registry, tele *obsv.RunTelemetry, journal string, resume bool, csv, stats bool, manifestPath string, args []string, stdout, stderr io.Writer) error {
	if resume && journal == "" {
		return fmt.Errorf("-resume needs -journal (the journal is what is resumed)")
	}
	spec, err := sweep.ReadSpec(path)
	if err != nil {
		return err
	}
	span := obsv.NewSpan("sweep")
	res, err := sweep.Run(spec, sweep.Options{
		Workers:  p.Workers,
		Journal:  journal,
		Resume:   resume,
		Registry: reg,
		Span:     span,
		Events:   tele.Log,
		Progress: tele.Heartbeat.ObserveProgress,
	})
	span.End()
	if err != nil {
		return err
	}
	if stats {
		fmt.Fprintf(stderr, "sweep %s: %d points (%d resumed), cache %d hits / %d misses, %v (workers=%d)\n",
			spec.Name, len(res.Rows), res.Resumed, res.CacheHits, res.CacheMisses,
			res.Elapsed.Round(time.Millisecond), p.Workers)
	}

	var artefacts []obsv.ArtefactRecord
	if spec.Figure != nil {
		f, err := sweep.Assemble(spec, res)
		if err != nil {
			return err
		}
		if manifestPath != "" {
			artefacts = append(artefacts, obsv.ArtefactRecord{Figure: *f, ElapsedSec: res.Elapsed.Seconds()})
		}
		if csv {
			err = f.CSV(stdout)
		} else {
			err = f.Render(stdout)
		}
		if err != nil {
			return err
		}
	} else {
		// No figure section: emit the result rows as JSON lines.
		enc := json.NewEncoder(stdout)
		for _, r := range res.Rows {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
	}

	if manifestPath != "" {
		m := obsv.NewManifest("tagseval")
		m.Args = args
		m.Params = map[string]any{"spec": path, "csv": csv}
		m.Workers = p.Workers
		m.Artefacts = artefacts
		m.Metrics = reg.Snapshot()
		rec := span.Record()
		m.Trace = &rec
		m.Sweep = &obsv.SweepRecord{
			Name:        spec.Name,
			SpecSHA256:  res.SpecHash,
			Points:      len(res.Points),
			Resumed:     res.Resumed,
			Journal:     journal,
			Workers:     p.Workers,
			CacheHits:   res.CacheHits,
			CacheMisses: res.CacheMisses,
			ElapsedSec:  res.Elapsed.Seconds(),
		}
		m.Events = tele.Record()
		if err := m.WriteFile(manifestPath); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys(m map[string]runner) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
