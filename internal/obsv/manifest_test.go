package obsv

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func sampleManifest() *Manifest {
	m := NewManifest("tagseval")
	m.Args = []string{"-short", "-fig", "figure6"}
	m.Params = map[string]any{"short": true, "mu": 10.0}
	m.Seed = 7
	m.Workers = 4
	m.Derive = &DeriveStats{States: 4331, Transitions: 25000, Levels: 40, Workers: 4, Elapsed: 12 * time.Millisecond}
	m.Solve = &SolveStats{Solver: "gauss-seidel", Iterations: 321, FinalDiff: 9.9e-13,
		Converged: true, Elapsed: time.Millisecond}
	m.Measures = map[string]float64{"throughput.service1": 4.32109876543, "states": 4331}
	m.Artefacts = []ArtefactRecord{{
		Figure: Figure{
			ID: "figure6", Title: "Average queue length", XLabel: "rate", YLabel: "L",
			Notes: []string{"TAG CTMC has 4331 states"},
			Series: []Series{
				{Name: "TAG-total", X: []float64{1, 2, 3}, Y: []float64{5.1234567890123, 4.2, 3.3}},
			},
		},
		ElapsedSec: 0.25,
	}}
	m.Metrics = []Metric{{Name: "sim.completed", Kind: "counter", Value: 100}}
	m.Sweep = &SweepRecord{
		Name:       "figure6",
		SpecSHA256: "4ec9599fc203d176a301536c2e091a19bc852759b255bd6818810a42c5fed14a",
		Points:     31, Resumed: 12, Journal: "fig6.jsonl", Workers: 4,
		CacheHits: 28, CacheMisses: 1, ElapsedSec: 1.5,
	}
	m.Analysis = &AnalysisRecord{
		Analyzers:  []string{"floatcmp", "lockorder", "sentinelerr"},
		Packages:   23,
		Findings:   2,
		ByAnalyzer: map[string]int{"lockorder": 1, "sentinelerr": 1},
		ElapsedSec: 3.25,
	}
	m.Trace = &SpanRecord{Name: "run", DurUS: 100, Children: []SpanRecord{{Name: "derive", StartUS: 1, DurUS: 50}}}
	m.Events = &EventLogRecord{
		Emitted: 3, Dropped: 1, Sink: "run-events.jsonl",
		ByLevel: map[string]int64{"info": 2, "error": 1},
		Recorder: []Event{
			{Seq: 2, TS: "2026-08-08T00:00:00Z", Level: "info", Kind: "derive.level", Fields: map[string]float64{"level": 3}},
			{Seq: 3, TS: "2026-08-08T00:00:01Z", Level: "error", Kind: "derive.error", Msg: "boom"},
		},
	}
	return m
}

// TestManifestRoundTrip writes a fully-populated manifest and reads it
// back, checking field-for-field equality — in particular that every
// float64 survives the JSON round trip bit for bit.
func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	path := filepath.Join(t.TempDir(), "run.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", m, got)
	}
	// Bit-for-bit on the awkward float.
	if got.Artefacts[0].Series[0].Y[0] != 5.1234567890123 {
		t.Fatalf("float not bit-identical: %v", got.Artefacts[0].Series[0].Y[0])
	}
}

func TestManifestValidate(t *testing.T) {
	ok := func() *Manifest { return sampleManifest() }

	cases := []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"wrong schema", func(m *Manifest) { m.Schema = "v0" }},
		{"no tool", func(m *Manifest) { m.Tool = "" }},
		{"bad timestamp", func(m *Manifest) { m.CreatedAt = "yesterday" }},
		{"NaN measure", func(m *Manifest) { m.Measures["bad"] = math.NaN() }},
		{"artefact without id", func(m *Manifest) { m.Artefacts[0].ID = "" }},
		{"artefact without series", func(m *Manifest) { m.Artefacts[0].Series = nil }},
		{"ragged series", func(m *Manifest) { m.Artefacts[0].Series[0].X = []float64{1} }},
		{"unnamed series", func(m *Manifest) { m.Artefacts[0].Series[0].Name = "" }},
		{"anonymous metric", func(m *Manifest) { m.Metrics[0].Name = "" }},
		{"sweep without name", func(m *Manifest) { m.Sweep.Name = "" }},
		{"sweep with short hash", func(m *Manifest) { m.Sweep.SpecSHA256 = "abc123" }},
		{"sweep without points", func(m *Manifest) { m.Sweep.Points = 0 }},
		{"sweep resumed beyond points", func(m *Manifest) { m.Sweep.Resumed = m.Sweep.Points + 1 }},
		{"sweep negative cache counter", func(m *Manifest) { m.Sweep.CacheMisses = -1 }},
		{"analysis without analyzers", func(m *Manifest) { m.Analysis.Analyzers = nil }},
		{"analysis unnamed analyzer", func(m *Manifest) { m.Analysis.Analyzers = []string{"lockorder", ""} }},
		{"analysis negative packages", func(m *Manifest) { m.Analysis.Packages = -1 }},
		{"analysis negative findings", func(m *Manifest) { m.Analysis.Findings = -1 }},
		{"analysis unknown analyzer in by_analyzer", func(m *Manifest) { m.Analysis.ByAnalyzer = map[string]int{"bogus": 2} }},
		{"analysis by_analyzer sum mismatch", func(m *Manifest) { m.Analysis.ByAnalyzer = map[string]int{"lockorder": 5} }},
		{"analysis negative by_analyzer count", func(m *Manifest) {
			m.Analysis.Findings = 0
			m.Analysis.ByAnalyzer = map[string]int{"lockorder": -1, "sentinelerr": 1}
		}},
		{"events negative counts", func(m *Manifest) { m.Events.Dropped = -1 }},
		{"events unknown level", func(m *Manifest) { m.Events.ByLevel = map[string]int64{"fatal": 3} }},
		{"events by_level mismatch", func(m *Manifest) { m.Events.ByLevel = map[string]int64{"info": 1} }},
		{"events recorder exceeds emitted", func(m *Manifest) { m.Events.Emitted = 1; m.Events.ByLevel = nil }},
		{"events recorder kindless event", func(m *Manifest) { m.Events.Recorder[0].Kind = "" }},
		{"events recorder out of order", func(m *Manifest) { m.Events.Recorder[1].Seq = 1 }},
	}
	for _, tc := range cases {
		m := ok()
		tc.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken manifest", tc.name)
		}
	}
	if err := ok().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
}

func TestReadManifestRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if _, err := ReadManifest(path); err == nil {
		t.Fatal("missing file must error")
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err == nil {
		t.Fatal("malformed JSON must error")
	}
	if err := os.WriteFile(path, []byte(`{"schema":"pepatags/run-manifest/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err == nil {
		t.Fatal("schema-valid but tool-less manifest must error")
	}
}
