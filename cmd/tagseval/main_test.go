package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pepatags/internal/obsv"
)

func TestRunList(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run([]string{"-list"}, &out, &errs); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"figure6", "figure12", "statespace", "tagged", "fairness"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in list:\n%s", want, out.String())
		}
	}
}

func TestRunOneFigureCSV(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run([]string{"-short", "-csv", "-fig", "statespace"}, &out, &errs); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "4331") {
		t.Fatalf("missing state count:\n%s", s)
	}
	if strings.Contains(s, "#") {
		t.Fatalf("CSV should drop comments:\n%s", s)
	}
}

func TestRunApproxTable(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run([]string{"-fig", "approx"}, &out, &errs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "6.18") {
		t.Fatalf("missing balance timeout:\n%s", out.String())
	}
}

// TestManifestMatchesTableBitForBit is the acceptance check for the
// -manifest flag: the figure6 sweep (8 timeout rates in the short
// grid) is rendered once to stdout and once from the manifest's raw
// float64 series, and the two byte streams must be identical.
func TestManifestMatchesTableBitForBit(t *testing.T) {
	mpath := filepath.Join(t.TempDir(), "run.json")
	var out, errs bytes.Buffer
	if err := run([]string{"-short", "-fig", "figure6", "-manifest", mpath}, &out, &errs); err != nil {
		t.Fatal(err)
	}

	m, err := obsv.ReadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "tagseval" || len(m.Artefacts) != 1 {
		t.Fatalf("bad manifest: tool=%q artefacts=%d", m.Tool, len(m.Artefacts))
	}
	rec := m.Artefacts[0]
	if rec.ID != "figure6" || rec.ElapsedSec <= 0 {
		t.Fatalf("bad artefact record: %+v", rec)
	}
	if len(rec.Series[0].X) < 3 {
		t.Fatalf("expected a sweep over >= 3 timeouts, got %d", len(rec.Series[0].X))
	}

	var fromManifest bytes.Buffer
	if err := rec.Render(&fromManifest); err != nil {
		t.Fatal(err)
	}
	fromManifest.WriteByte('\n') // run() prints a blank line after each table
	if got, want := out.String(), fromManifest.String(); got != want {
		t.Fatalf("stdout and manifest-rendered table differ:\nstdout:\n%s\nmanifest:\n%s", got, want)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run([]string{"-fig", "nope"}, &out, &errs); err == nil {
		t.Fatal("expected unknown-artefact error")
	}
}

func TestRunNoArgs(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run(nil, &out, &errs); err == nil {
		t.Fatal("expected nothing-to-do error")
	}
}

// TestSweepMatchesDirectRunner is the acceptance check for -sweep: the
// spec behind figure6 (via -spec-dump), run through the batch engine,
// must render byte-identically to the direct -fig runner.
func TestSweepMatchesDirectRunner(t *testing.T) {
	dir := t.TempDir()
	spath := filepath.Join(dir, "f6.json")

	var dump, errs bytes.Buffer
	if err := run([]string{"-short", "-spec-dump", "figure6"}, &dump, &errs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spath, dump.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var direct bytes.Buffer
	if err := run([]string{"-short", "-fig", "figure6"}, &direct, &errs); err != nil {
		t.Fatal(err)
	}
	var swept bytes.Buffer
	if err := run([]string{"-short", "-sweep", spath}, &swept, &errs); err != nil {
		t.Fatal(err)
	}
	// The -fig loop prints a blank line after each table; -sweep doesn't.
	if got, want := swept.String()+"\n", direct.String(); got != want {
		t.Fatalf("sweep and direct outputs differ:\nsweep:\n%s\ndirect:\n%s", got, want)
	}
}

// TestSweepJournalResumeAndManifest drives the full CLI crash-recovery
// path: run with a journal, truncate it mid-row, resume, and check the
// journal is byte-identical to the clean one and the manifest records
// the resumed sweep.
func TestSweepJournalResumeAndManifest(t *testing.T) {
	dir := t.TempDir()
	spath := filepath.Join(dir, "f6.json")
	var dump, errs bytes.Buffer
	if err := run([]string{"-short", "-spec-dump", "figure6"}, &dump, &errs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spath, dump.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	clean := filepath.Join(dir, "clean.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-short", "-sweep", spath, "-journal", clean}, &out, &errs); err != nil {
		t.Fatal(err)
	}
	cleanBytes, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a kill: keep the header, three rows, and half a line.
	lines := bytes.SplitAfter(cleanBytes, []byte("\n"))
	journal := filepath.Join(dir, "killed.jsonl")
	killed := bytes.Join(lines[:4], nil)
	killed = append(killed, []byte(`{"seq":3,"ser`)...)
	if err := os.WriteFile(journal, killed, 0o644); err != nil {
		t.Fatal(err)
	}

	mpath := filepath.Join(dir, "run.json")
	out.Reset()
	if err := run([]string{"-short", "-sweep", spath, "-journal", journal, "-resume", "-manifest", mpath}, &out, &errs); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, cleanBytes) {
		t.Errorf("resumed journal differs from clean run")
	}

	m, err := obsv.ReadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sweep == nil {
		t.Fatal("manifest has no sweep record")
	}
	if m.Sweep.Name != "figure6" || m.Sweep.Resumed != 3 || m.Sweep.Journal != journal {
		t.Errorf("sweep record %+v: want name=figure6 resumed=3 journal=%s", m.Sweep, journal)
	}
	if m.Sweep.Points != 10 { // 8 short-grid rates + 2 baseline points
		t.Errorf("sweep record points = %d, want 10", m.Sweep.Points)
	}
	if len(m.Artefacts) != 1 || m.Artefacts[0].ID != "figure6" {
		t.Errorf("manifest artefacts: %+v", m.Artefacts)
	}
}

func TestJournalWithoutSweepRejected(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run([]string{"-fig", "figure6", "-journal", "x.jsonl"}, &out, &errs); err == nil {
		t.Fatal("-journal without -sweep should fail")
	}
	if err := run([]string{"-sweep", "spec.json", "-resume"}, &out, &errs); err == nil {
		t.Fatal("-resume without -journal should fail")
	}
}
