package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchInput = `goos: linux
goarch: amd64
pkg: pepatags/internal/pepa
cpu: Intel(R) Xeon(R)
BenchmarkDeriveTAG/K=20/workers=4-8  12  93210458 ns/op  1024 B/op  17 allocs/op
BenchmarkDeriveTAG/K=20/workers=1-8  4  310093121 ns/op
BenchmarkSolveGTH-8  100  1234567.5 ns/op
BenchmarkSimCalendar/nodes=1000-8  5  240000000 ns/op  4150000.25 events/s  96 B/op  3 allocs/op
PASS
ok  	pepatags/internal/pepa	4.2s
`

const goldenOutput = `{
  "goos": "linux",
  "goarch": "amd64",
  "pkg": "pepatags/internal/pepa",
  "cpu": "Intel(R) Xeon(R)",
  "benchmarks": [
    {
      "name": "BenchmarkDeriveTAG/K=20/workers=4",
      "procs": 8,
      "iterations": 12,
      "ns_per_op": 93210458,
      "bytes_per_op": 1024,
      "allocs_per_op": 17
    },
    {
      "name": "BenchmarkDeriveTAG/K=20/workers=1",
      "procs": 8,
      "iterations": 4,
      "ns_per_op": 310093121
    },
    {
      "name": "BenchmarkSolveGTH",
      "procs": 8,
      "iterations": 100,
      "ns_per_op": 1234567.5
    },
    {
      "name": "BenchmarkSimCalendar/nodes=1000",
      "procs": 8,
      "iterations": 5,
      "ns_per_op": 240000000,
      "bytes_per_op": 96,
      "allocs_per_op": 3,
      "metrics": {
        "events/s": 4150000.25
      }
    }
  ]
}
`

func runCLI(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, strings.NewReader(stdin), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestGoldenStdout(t *testing.T) {
	code, stdout, stderr := runCLI(t, benchInput)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if stdout != goldenOutput {
		t.Errorf("output differs from golden:\n--- got ---\n%s\n--- want ---\n%s", stdout, goldenOutput)
	}
}

func TestOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	code, stdout, stderr := runCLI(t, benchInput, "-o", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("wrote to stdout despite -o: %q", stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != goldenOutput {
		t.Errorf("file differs from golden:\n%s", data)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t, "", "-bogus"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "", "positional"); code != 2 {
		t.Errorf("positional arg: exit %d, want 2", code)
	}
}

func TestUnwritableOutput(t *testing.T) {
	code, _, stderr := runCLI(t, benchInput, "-o", filepath.Join(t.TempDir(), "no", "such", "dir.json"))
	if code != 1 {
		t.Errorf("unwritable -o: exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "benchjson:") {
		t.Errorf("no diagnostic on stderr: %q", stderr)
	}
}

// TestMalformedLinesSkipped: garbage that merely looks like a result
// is dropped, not crashed on, and does not poison the summary.
func TestMalformedLinesSkipped(t *testing.T) {
	in := strings.Join([]string{
		"BenchmarkTooFewFields-8  12",
		"BenchmarkBadIters-8  twelve  93210458 ns/op",
		"BenchmarkBadUnit-8  12  93210458 s/op",
		"BenchmarkOK-4  10  5 ns/op  junk trailing fields",
		"Benchmark  ",
		"random noise",
	}, "\n") + "\n"
	code, stdout, stderr := runCLI(t, in)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	var s summary
	if err := json.Unmarshal([]byte(stdout), &s); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout)
	}
	if len(s.Benchmarks) != 1 || s.Benchmarks[0].Name != "BenchmarkOK" || s.Benchmarks[0].Procs != 4 {
		t.Errorf("malformed lines not skipped cleanly: %+v", s.Benchmarks)
	}
}

// Empty or result-free input must fail loudly: CI pipes bench smoke
// output through benchjson precisely so a filter that matches nothing
// (or a swallowed build failure) cannot pass silently.
func TestEmptyInputFails(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"empty", ""},
		{"no results", "goos: linux\nPASS\nok  \tpepatags\t0.1s\n"},
	} {
		code, stdout, stderr := runCLI(t, tc.in)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1", tc.name, code)
		}
		if stdout != "" {
			t.Errorf("%s: wrote output despite failure: %q", tc.name, stdout)
		}
		if !strings.Contains(stderr, "no benchmark results") {
			t.Errorf("%s: no diagnostic on stderr: %q", tc.name, stderr)
		}
	}
}

// TestBaseline checks that -baseline summarises a second bench output
// under "baseline", that output from several packages names each once,
// and that a missing or empty baseline fails.
func TestBaseline(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.txt")
	if err := os.WriteFile(base, []byte(strings.Replace(benchInput, "93210458", "99999999", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, benchInput+"pkg: pepatags/internal/sweep\npkg: pepatags/internal/pepa\n", "-baseline", base)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var s summary
	if err := json.Unmarshal([]byte(stdout), &s); err != nil {
		t.Fatal(err)
	}
	if s.Baseline == nil || len(s.Baseline.Benchmarks) != 4 || s.Baseline.Benchmarks[0].NsPerOp != 99999999 ||
		s.Pkg != "pepatags/internal/pepa, pepatags/internal/sweep" ||
		s.Benchmarks[0].NsPerOp != 93210458 {
		t.Fatalf("baseline not summarised beside the results: %s", stdout)
	}
	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{empty, filepath.Join(dir, "missing.txt")} {
		if code, _, _ := runCLI(t, benchInput, "-baseline", b); code != 1 {
			t.Errorf("baseline %s: exit %d, want 1", b, code)
		}
	}
}

// TestOutputFileMerges checks that -o into an existing ledger replaces
// only the rows, and their baseline rows, whose names the input has,
// and keeps the rest.
func TestOutputFileMerges(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	base := filepath.Join(dir, "base.txt")
	old := "BenchmarkKept-8  10  500 ns/op\n" + strings.Replace(benchInput, "93210458", "11111111", 1)
	if err := os.WriteFile(base, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runCLI(t, old, "-baseline", base, "-o", path); code != 0 {
		t.Fatalf("first write: exit %d: %s", code, stderr)
	}
	fresh := "BenchmarkDeriveTAG/K=20/workers=4-8  12  93210458 ns/op\nBenchmarkNew-8  3  7 ns/op\n"
	if code, _, stderr := runCLI(t, fresh, "-o", path); code != 0 {
		t.Fatalf("merge: exit %d: %s", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s summary
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	var rows, baseRows []string
	for _, r := range s.Benchmarks {
		rows = append(rows, r.Name)
	}
	for _, r := range s.Baseline.Benchmarks {
		baseRows = append(baseRows, r.Name)
	}
	want := "BenchmarkKept BenchmarkDeriveTAG/K=20/workers=1 BenchmarkSolveGTH BenchmarkSimCalendar/nodes=1000 " +
		"BenchmarkDeriveTAG/K=20/workers=4 BenchmarkNew"
	if got := strings.Join(rows, " "); got != want {
		t.Errorf("rows:\n got %s\nwant %s", got, want)
	}
	wantBase := "BenchmarkKept BenchmarkDeriveTAG/K=20/workers=1 BenchmarkSolveGTH BenchmarkSimCalendar/nodes=1000"
	if got := strings.Join(baseRows, " "); got != wantBase {
		t.Errorf("baseline rows:\n got %s\nwant %s", got, wantBase)
	}
	if s.Benchmarks[4].NsPerOp != 93210458 {
		t.Errorf("replaced row kept its old value: %+v", s.Benchmarks[4])
	}

	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCLI(t, fresh, "-o", path); code != 1 {
		t.Errorf("malformed existing file: exit %d, want 1", code)
	}
}
