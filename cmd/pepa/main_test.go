package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pepatags/internal/obsv"
)

func TestRunBuiltinTAG(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run([]string{"-tag"}, strings.NewReader(""), &out, &errs); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errs.String())
	}
	s := out.String()
	if !strings.Contains(s, "states: 4331") {
		t.Fatalf("missing state count:\n%s", s)
	}
	if !strings.Contains(s, "service1") || !strings.Contains(s, "timeout") {
		t.Fatalf("missing throughputs:\n%s", s)
	}
}

func TestRunFromStdin(t *testing.T) {
	src := `
	P = (a, 2).P1;
	P1 = (b, 3).P;
	P
	`
	var out, errs bytes.Buffer
	if err := run([]string{"-states", "-lump", "-echo", "-"}, strings.NewReader(src), &out, &errs); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{"states: 2", "stationary distribution", "lumped quotient", "P = (a, 2).P1;"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

// TestRunStatsReportsGTHStage checks a GTH solve, chosen by the
// automatic solver or by -solver gth, is reported like an iterative
// one: on stderr under -stats and as the manifest's solve record.
func TestRunStatsReportsGTHStage(t *testing.T) {
	src := `
	P = (a, 2).P1;
	P1 = (b, 3).P;
	P
	`
	for _, solver := range []string{"auto", "gth"} {
		mpath := filepath.Join(t.TempDir(), "run.json")
		var out, errs bytes.Buffer
		args := []string{"-stats", "-solver", solver, "-manifest", mpath, "-"}
		if err := run(args, strings.NewReader(src), &out, &errs); err != nil {
			t.Fatalf("-solver %s: run: %v (stderr: %s)", solver, err, errs.String())
		}
		if !strings.Contains(errs.String(), "gth: 0 iterations, final diff 0, converged, ") {
			t.Fatalf("-solver %s: no GTH solve stats on stderr:\n%s", solver, errs.String())
		}
		m, err := obsv.ReadManifest(mpath)
		if err != nil {
			t.Fatal(err)
		}
		if m.Solve == nil || m.Solve.Solver != "gth" || !m.Solve.Converged {
			t.Fatalf("-solver %s: bad solve record: %+v", solver, m.Solve)
		}
	}
}

// TestRunStatsReportsResidual: the Figure 3 chain (4,331 states) is
// solved by the cascade's Krylov stage, and both the -stats line and
// the manifest's solve record carry its final max|πQ|.
func TestRunStatsReportsResidual(t *testing.T) {
	mpath := filepath.Join(t.TempDir(), "run.json")
	var out, errs bytes.Buffer
	if err := run([]string{"-tag", "-stats", "-manifest", mpath}, strings.NewReader(""), &out, &errs); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errs.String())
	}
	if !strings.Contains(errs.String(), "bicgstab: ") || !strings.Contains(errs.String(), ", residual ") {
		t.Fatalf("no Krylov solve line with a residual on stderr:\n%s", errs.String())
	}
	m, err := obsv.ReadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Solve == nil || m.Solve.Solver != "bicgstab" || m.Solve.Residual <= 0 || m.Solve.Residual > 1e-12 || len(m.Solve.Fallbacks) != 0 {
		t.Fatalf("bad solve record: %+v", m.Solve)
	}
}

func TestRunParseError(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run([]string{"-"}, strings.NewReader("garbage @@"), &out, &errs); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestRunUsage(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run(nil, strings.NewReader(""), &out, &errs); err == nil {
		t.Fatal("expected usage error")
	}
}

func TestRunMaxStatesCap(t *testing.T) {
	var out, errs bytes.Buffer
	err := run([]string{"-max-states", "2", "-tag"}, strings.NewReader(""), &out, &errs)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("expected overflow error, got %v", err)
	}
}

func TestRunManifestAndTrace(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "run.json")
	tpath := filepath.Join(dir, "trace.json")
	var out, errs bytes.Buffer
	args := []string{"-tag", "-stats", "-manifest", mpath, "-trace", tpath}
	if err := run(args, strings.NewReader(""), &out, &errs); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errs.String())
	}

	m, err := obsv.ReadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "pepa" || m.Model != "builtin:tag" || m.Solver != "auto" {
		t.Fatalf("bad manifest header: %+v", m)
	}
	if m.Derive == nil || m.Derive.States != 4331 || m.Derive.Transitions != 16695 {
		t.Fatalf("bad derive stats: %+v", m.Derive)
	}
	if m.Solve == nil || !m.Solve.Converged {
		t.Fatalf("bad solve stats: %+v", m.Solve)
	}
	if m.Trace == nil || m.Trace.Name != "pepa" {
		t.Fatalf("missing trace record: %+v", m.Trace)
	}
	// Each measure must be the exact float64 behind the printed line.
	for _, a := range []string{"service1", "timeout", "arrival"} {
		x, ok := m.Measures["throughput."+a]
		if !ok {
			t.Fatalf("measure throughput.%s missing; have %v", a, m.Measures)
		}
		line := fmt.Sprintf("  %-16s %.8g\n", a, x)
		if !strings.Contains(out.String(), line) {
			t.Fatalf("manifest measure %q does not reproduce the stdout line %q:\n%s", a, line, out.String())
		}
	}
	if len(m.Metrics) == 0 {
		t.Fatal("manifest has no metrics snapshot")
	}

	// The Chrome trace must be a JSON array covering the pipeline spans.
	b, err := os.ReadFile(tpath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range events {
		seen[e["name"].(string)] = true
	}
	for _, want := range []string{"pepa", "parse", "derive", "compile", "explore", "solve", "measures"} {
		if !seen[want] {
			t.Fatalf("trace missing span %q; have %v", want, seen)
		}
	}

	// -stats renders the same tree on stderr.
	for _, want := range []string{"pepa", "derive", "explore", "solve"} {
		if !strings.Contains(errs.String(), want) {
			t.Fatalf("span tree missing %q on stderr:\n%s", want, errs.String())
		}
	}
}

func TestRunDebugAddr(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run([]string{"-debug-addr", "127.0.0.1:0", "-tag"}, strings.NewReader(""), &out, &errs); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(errs.String(), "debug endpoint on http://127.0.0.1:") {
		t.Fatalf("missing debug-endpoint banner:\n%s", errs.String())
	}
}

func TestRunLintMode(t *testing.T) {
	// A clean model lints quietly and never derives.
	var out, errs bytes.Buffer
	if err := run([]string{"-lint", "-tag"}, strings.NewReader(""), &out, &errs); err != nil {
		t.Fatalf("lint of builtin model: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "states:") {
		t.Fatalf("-lint must not derive:\n%s", out.String())
	}

	// A dead sync is an error-severity finding: non-nil error, text
	// diagnostics on stdout.
	bad := "P = (a, 1).P1;\nP1 = (sync, 1).P1;\nQ = (sync2, 1).Q;\nP <sync, sync2> Q"
	out.Reset()
	if err := run([]string{"-lint", "-"}, strings.NewReader(bad), &out, &errs); err == nil {
		t.Fatalf("lint accepted a dead sync:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "error[dead-sync]") {
		t.Fatalf("missing dead-sync diagnostic:\n%s", out.String())
	}
}

func TestRunLintJSONManifest(t *testing.T) {
	mpath := filepath.Join(t.TempDir(), "lint.json")
	bad := "P = (a, 1).P1;\nP1 = (sync, 1).P1;\nQ = (sync2, 1).Q;\nP <sync, sync2> Q"
	var out, errs bytes.Buffer
	args := []string{"-lint", "-json", "-manifest", mpath, "-"}
	if err := run(args, strings.NewReader(bad), &out, &errs); err == nil {
		t.Fatal("expected lint failure")
	}
	var rep map[string]any
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, out.String())
	}
	if rep["schema"] != "pepatags/pepalint/v1" {
		t.Fatalf("report schema %v", rep["schema"])
	}
	m, err := obsv.ReadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Lint == nil || m.Lint.Errors == 0 || len(m.Lint.Diags) == 0 {
		t.Fatalf("manifest lint record %+v", m.Lint)
	}
	found := false
	for _, d := range m.Lint.Diags {
		if d.Rule == "dead-sync" && d.Severity == "error" && d.Line == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no positioned dead-sync diag in manifest: %+v", m.Lint.Diags)
	}
}

func TestRunLevelMeasure(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run([]string{"-level", "1:QA", "-tag"}, strings.NewReader(""), &out, &errs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mean level of leaf 1 (QA*)") {
		t.Fatalf("missing level output:\n%s", out.String())
	}
	if err := run([]string{"-level", "zz", "-tag"}, strings.NewReader(""), &out, &errs); err == nil {
		t.Fatal("bad level spec must fail")
	}
}

// TestRunFailureManifest is the issue's "intentionally failed run"
// acceptance case: a derivation that blows the -max-states cap must
// still leave a manifest carrying the error and the flight-recorder
// tail, and the recorder dump must land on stderr.
func TestRunFailureManifest(t *testing.T) {
	mpath := filepath.Join(t.TempDir(), "fail.json")
	var out, errs bytes.Buffer
	args := []string{"-tag", "-max-states", "3", "-manifest", mpath}
	if err := run(args, strings.NewReader(""), &out, &errs); err == nil {
		t.Fatal("expected max-states failure")
	}
	m, err := obsv.ReadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Error == "" || !strings.Contains(m.Error, "state space exceeds") {
		t.Fatalf("failure manifest error %q", m.Error)
	}
	if m.Events == nil || len(m.Events.Recorder) == 0 {
		t.Fatalf("failure manifest has no flight recorder: %+v", m.Events)
	}
	kinds := make(map[string]int)
	for _, ev := range m.Events.Recorder {
		kinds[ev.Kind]++
	}
	if kinds["derive.error"] == 0 || kinds["pepa.fail"] == 0 {
		t.Fatalf("recorder kinds %v", kinds)
	}
	if !strings.Contains(errs.String(), "flight recorder") {
		t.Fatalf("no recorder dump on stderr:\n%s", errs.String())
	}
}

// TestRunEventsAndProgress checks the -events JSON-lines sink and the
// -progress heartbeat on a successful run.
func TestRunEventsAndProgress(t *testing.T) {
	epath := filepath.Join(t.TempDir(), "run.jsonl")
	var out, errs bytes.Buffer
	args := []string{"-tag", "-events", epath, "-progress"}
	if err := run(args, strings.NewReader(""), &out, &errs); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errs.String())
	}
	b, err := os.ReadFile(epath)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	var lastSeq uint64
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var ev obsv.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("event seq not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		kinds[ev.Kind]++
	}
	for _, want := range []string{"derive.start", "derive.done", "solve.done", "heartbeat.final"} {
		if kinds[want] == 0 {
			t.Fatalf("missing %q in event sink: %v", want, kinds)
		}
	}
	if !strings.Contains(errs.String(), "progress: phase=") {
		t.Fatalf("no heartbeat line on stderr:\n%s", errs.String())
	}
}
