// benchjson converts `go test -bench` text output (stdin) into a JSON
// summary (stdout, or -o file). It is what `make bench` uses to write
// BENCH_derive.json, so benchmark history can be diffed and plotted
// without re-parsing Go's bench format. With -baseline FILE, the bench
// output of a reference commit in FILE is summarised too, under
// "baseline", so one file carries both sides of a comparison.
//
// An existing -o file is updated, not overwritten: the rows (and their
// baseline rows) whose names the input contains are replaced, and every
// other row is kept, so re-recording some benchmarks of a ledger leaves
// the rest of it in place. Delete the file to drop rows of benchmarks
// that no longer exist.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

type result struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric pairs (e.g. "events/s" from
	// the simulator benchmarks) keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type summary struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []result `json:"benchmarks"`
	Baseline   *summary `json:"baseline,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output file (default stdout)")
	baseline := fs.String("baseline", "", "bench output of a reference commit to include as the baseline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchjson: unexpected arguments: %v (input is read from stdin)\n", fs.Args())
		return 2
	}

	s, err := parse(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		b, err := parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: baseline %s: %v\n", *baseline, err)
			return 1
		}
		s.Baseline = &b
	}

	if *out != "" {
		prev, err := os.ReadFile(*out)
		switch {
		case err == nil:
			var old summary
			if err := json.Unmarshal(prev, &old); err != nil {
				fmt.Fprintf(stderr, "benchjson: existing %s: %v\n", *out, err)
				return 1
			}
			s = merge(old, s)
		case !errors.Is(err, os.ErrNotExist):
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
	}

	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	buf = append(buf, '\n')
	if *out == "" {
		stdout.Write(buf)
		return 0
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	return 0
}

// merge returns next with the rows of prev whose names next does not
// contain kept ahead of its own. Baseline rows follow the same rule, so
// a replaced row takes its old baseline rows with it.
func merge(prev, next summary) summary {
	names := make(map[string]bool)
	for _, r := range next.Benchmarks {
		names[r.Name] = true
	}
	keep := func(rows []result) []result {
		var kept []result
		for _, r := range rows {
			if !names[r.Name] {
				kept = append(kept, r)
			}
		}
		return kept
	}
	next.Benchmarks = append(keep(prev.Benchmarks), next.Benchmarks...)
	if prev.Baseline == nil {
		return next
	}
	base := keep(prev.Baseline.Benchmarks)
	switch {
	case next.Baseline != nil:
		next.Baseline.Benchmarks = append(base, next.Baseline.Benchmarks...)
	case len(base) > 0:
		b := *prev.Baseline
		b.Benchmarks = base
		next.Baseline = &b
	}
	return next
}

// parse summarises Go bench output. An input without results is an
// error: a filter that matched nothing, a build failure swallowed by a
// pipeline, or benchmarks that all errored out. Writing "[]" would let
// CI and `make bench` pass silently on a broken run.
func parse(r io.Reader) (summary, error) {
	var s summary
	var pkgs []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			s.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			s.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			// Output concatenated from several packages lists each.
			pkg := strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			if !slices.Contains(pkgs, pkg) {
				pkgs = append(pkgs, pkg)
			}
			s.Pkg = strings.Join(pkgs, ", ")
		case strings.HasPrefix(line, "cpu:"):
			s.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line); ok {
				s.Benchmarks = append(s.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return summary{}, err
	}
	if len(s.Benchmarks) == 0 {
		return summary{}, errors.New("no benchmark results found (empty or non-bench input)")
	}
	return s, nil
}

// parseBench parses one result line, e.g.
//
//	BenchmarkDeriveTAG/K=20/workers=4-8  12  93210458 ns/op  1024 B/op  17 allocs/op
func parseBench(line string) (result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return result{}, false
	}
	var r result
	r.Name = f[0]
	r.Procs = 1
	if i := strings.LastIndex(r.Name, "-"); i >= 0 {
		if p, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Procs = p
			r.Name = r.Name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r.Iterations = iters
	ns, err := strconv.ParseFloat(f[2], 64)
	if err != nil || f[3] != "ns/op" {
		return result{}, false
	}
	r.NsPerOp = ns
	for i := 4; i+1 < len(f); i += 2 {
		switch unit := f[i+1]; unit {
		case "B/op":
			if v, err := strconv.ParseInt(f[i], 10, 64); err == nil {
				r.BytesPerOp = v
			}
		case "allocs/op":
			if v, err := strconv.ParseInt(f[i], 10, 64); err == nil {
				r.AllocsPerOp = v
			}
		default:
			// Custom b.ReportMetric units, e.g. "12345678 events/s".
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
	}
	return r, true
}
