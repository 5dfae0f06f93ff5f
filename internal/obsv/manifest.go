package obsv

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// ManifestSchema identifies the manifest layout. Bump the trailing
// version when a field changes meaning; tools/manifestcheck rejects
// manifests from other versions.
const ManifestSchema = "pepatags/run-manifest/v1"

// Manifest is the machine-readable record of one CLI run, written
// under the -manifest flag of cmd/pepa, cmd/tagseval and cmd/tagssim.
// A sweep's manifests make the sweep replayable (the full parameter
// set and seed are recorded) and diffable (the measures the tables
// print are recorded as raw float64s, which encoding/json round-trips
// exactly).
//
// Not every field applies to every tool: pepa fills Model/Solver/
// Derive/Solve/Measures, tagseval fills Artefacts, tagssim fills
// Measures/Metrics. Validate only checks the fields that are present.
type Manifest struct {
	Schema    string `json:"schema"`
	Tool      string `json:"tool"`
	CreatedAt string `json:"created_at"` // RFC 3339
	GoVersion string `json:"go_version,omitempty"`

	Args    []string       `json:"args,omitempty"`    // raw CLI arguments
	Params  map[string]any `json:"params,omitempty"`  // resolved parameters
	Model   string         `json:"model,omitempty"`   // model file / builtin name
	Solver  string         `json:"solver,omitempty"`  // requested solver
	Seed    uint64         `json:"seed,omitempty"`    // RNG seed (simulation tools)
	Workers int            `json:"workers,omitempty"` // worker goroutines

	Derive *DeriveStats `json:"derive,omitempty"`
	Solve  *SolveStats  `json:"solve,omitempty"`

	// Measures are scalar results keyed by name ("throughput.service1",
	// "response_mean", ...), recorded untruncated.
	Measures map[string]float64 `json:"measures,omitempty"`

	// Artefacts are full figure/table records (tagseval).
	Artefacts []ArtefactRecord `json:"artefacts,omitempty"`

	// Metrics is a registry snapshot taken at the end of the run.
	Metrics []Metric `json:"metrics,omitempty"`

	// Sweep records the batch-engine run behind the artefacts, when the
	// run went through internal/sweep (tagseval -sweep / the figure
	// runners). See docs/MANIFEST.md.
	Sweep *SweepRecord `json:"sweep,omitempty"`

	// Lint records the static-analysis findings for the run's model,
	// written by cmd/pepa -lint. The rules are documented in
	// docs/LINT.md.
	Lint *LintRecord `json:"lint,omitempty"`

	// Trace is the pipeline span tree, when tracing was on.
	Trace *SpanRecord `json:"trace,omitempty"`

	// Analysis records a static-analysis suite run (tools/govet-suite
	// -manifest): which analyzers ran, over how many packages, how many
	// findings came out and how they split per analyzer. The individual
	// findings live in the tool's -json report; the manifest keeps the
	// accounting, so CI history shows when a gate started firing.
	Analysis *AnalysisRecord `json:"analysis,omitempty"`

	// Conform records a differential-conformance run (tools/conform):
	// how many scenarios and oracle checks ran and how many violations
	// survived. The full report, including shrunken reproducers, lives
	// in the tool's -json output; the manifest keeps the accounting.
	Conform *ConformRecord `json:"conform,omitempty"`

	// Sim records a replication batch run by the cluster simulator
	// (tagssim -replications): seeds, worker count, event totals and
	// the pooled confidence intervals. Single-run simulations keep
	// using Measures; the record exists so batch runs stay auditable
	// (which replication seeds produced which interval).
	Sim *SimRecord `json:"sim,omitempty"`

	// Events is the event-log accounting for the run: how many events
	// were emitted/dropped per level, where the JSON-lines sink went
	// (-events), and — on a failed or interrupted run — the flight
	// recorder's tail of the last events before the failure. See
	// docs/OBSERVABILITY.md.
	Events *EventLogRecord `json:"events,omitempty"`

	// Error records why the run failed, for manifests written on the
	// failure path. A manifest with a non-empty Error is allowed to
	// record no results (the run never produced any); the events
	// section then carries the diagnosis.
	Error string `json:"error,omitempty"`
}

// AnalysisRecord is the accounting of one static-analysis suite run.
type AnalysisRecord struct {
	Analyzers  []string       `json:"analyzers"`
	Packages   int            `json:"packages"`
	Findings   int            `json:"findings"`
	ByAnalyzer map[string]int `json:"by_analyzer,omitempty"`
	ElapsedSec float64        `json:"elapsed_sec"`
}

// ConformRecord is the accounting of one tools/conform run.
type ConformRecord struct {
	Seed       uint64         `json:"seed"`
	Inject     string         `json:"inject,omitempty"`
	Scenarios  int            `json:"scenarios"`
	Checks     int            `json:"checks"`
	ByKind     map[string]int `json:"by_kind,omitempty"`
	Violations int            `json:"violations"`
	ElapsedSec float64        `json:"elapsed_sec"`
}

// SimRecord is the accounting of one replication batch: how many
// independent replications ran over how many workers, which event core
// drove them, total events processed, and the pooled 95% confidence
// intervals the run reported.
type SimRecord struct {
	Replications int     `json:"replications"`
	Workers      int     `json:"workers,omitempty"`
	Core         string  `json:"core,omitempty"` // "calendar" or "heap"
	Trace        string  `json:"trace,omitempty"`
	Events       int64   `json:"events"`
	ResponseMean float64 `json:"response_mean"`
	ResponseCI   float64 `json:"response_ci"` // 95% t half-width
	SlowdownMean float64 `json:"slowdown_mean"`
	SlowdownCI   float64 `json:"slowdown_ci"`
	LossMean     float64 `json:"loss_mean"`
	LossCI       float64 `json:"loss_ci"`
	ElapsedSec   float64 `json:"elapsed_sec"`
}

// SweepRecord is the accounting of one sweep-engine run: which spec
// ran (by name and content hash), how much of it was resumed from the
// journal rather than re-solved, and what the skeleton cache saved.
type SweepRecord struct {
	Name       string `json:"name"`
	SpecSHA256 string `json:"spec_sha256"`
	Points     int    `json:"points"`
	Resumed    int    `json:"resumed,omitempty"`
	Journal    string `json:"journal,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	// CacheHits/CacheMisses count skeleton-cache lookups; one miss per
	// distinct model shape in the sweep.
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	ElapsedSec  float64 `json:"elapsed_sec"`
}

// LintRecord is the accounting of one pepalint run over the model:
// severity totals plus the individual findings. This package cannot
// depend on internal/pepa (the dependency runs the other way), so the
// diagnostics are carried as plain strings and line numbers.
type LintRecord struct {
	Errors   int        `json:"errors"`
	Warnings int        `json:"warnings"`
	Diags    []LintDiag `json:"diags,omitempty"`
}

// LintDiag is one lint finding inside a manifest.
type LintDiag struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	File     string `json:"file,omitempty"`
	Line     int    `json:"line,omitempty"`
	Msg      string `json:"msg"`
}

// ArtefactRecord captures one reproduced figure or table: the figure
// itself, whose rendering metadata and raw series regenerate the text
// table bit for bit, plus how long it took to produce.
type ArtefactRecord struct {
	Figure
	ElapsedSec float64 `json:"elapsed_sec"`
}

// NewManifest starts a manifest for the named tool, stamping schema,
// creation time and toolchain version.
func NewManifest(tool string) *Manifest {
	return &Manifest{
		Schema:    ManifestSchema,
		Tool:      tool,
		CreatedAt: time.Now().UTC().Format(time.RFC3339Nano),
		GoVersion: runtime.Version(),
	}
}

// Validate checks the manifest against the v1 schema. It is called on
// both write and read, so a manifest that loads is known well-formed.
func (m *Manifest) Validate() error {
	if m.Schema != ManifestSchema {
		return fmt.Errorf("obsv: manifest schema %q, want %q", m.Schema, ManifestSchema)
	}
	if m.Tool == "" {
		return fmt.Errorf("obsv: manifest has no tool")
	}
	if _, err := time.Parse(time.RFC3339Nano, m.CreatedAt); err != nil {
		return fmt.Errorf("obsv: bad created_at %q: %w", m.CreatedAt, err)
	}
	for name, v := range m.Measures {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("obsv: measure %q is %v", name, v)
		}
	}
	for i, a := range m.Artefacts {
		if a.ID == "" {
			return fmt.Errorf("obsv: artefact %d has no id", i)
		}
		if len(a.Series) == 0 {
			return fmt.Errorf("obsv: artefact %q has no series", a.ID)
		}
		for _, s := range a.Series {
			if s.Name == "" {
				return fmt.Errorf("obsv: artefact %q has an unnamed series", a.ID)
			}
			if len(s.X) != len(s.Y) {
				return fmt.Errorf("obsv: artefact %q series %q: %d x values vs %d y values",
					a.ID, s.Name, len(s.X), len(s.Y))
			}
		}
	}
	for _, mt := range m.Metrics {
		if mt.Name == "" || mt.Kind == "" {
			return fmt.Errorf("obsv: metric with empty name or kind")
		}
	}
	if s := m.Sweep; s != nil {
		if s.Name == "" {
			return fmt.Errorf("obsv: sweep record has no name")
		}
		if len(s.SpecSHA256) != 64 {
			return fmt.Errorf("obsv: sweep record spec_sha256 %q is not a SHA-256 hex digest", s.SpecSHA256)
		}
		if s.Points < 1 {
			return fmt.Errorf("obsv: sweep record has %d points", s.Points)
		}
		if s.Resumed < 0 || s.Resumed > s.Points {
			return fmt.Errorf("obsv: sweep record resumed %d of %d points", s.Resumed, s.Points)
		}
		if s.CacheHits < 0 || s.CacheMisses < 0 {
			return fmt.Errorf("obsv: sweep record has negative cache counters")
		}
	}
	if a := m.Analysis; a != nil {
		if len(a.Analyzers) == 0 {
			return fmt.Errorf("obsv: analysis record names no analyzers")
		}
		known := map[string]bool{}
		for _, name := range a.Analyzers {
			if name == "" {
				return fmt.Errorf("obsv: analysis record has an unnamed analyzer")
			}
			known[name] = true
		}
		if a.Packages < 0 || a.Findings < 0 {
			return fmt.Errorf("obsv: analysis record has negative counts")
		}
		sum := 0
		for name, n := range a.ByAnalyzer {
			if !known[name] {
				return fmt.Errorf("obsv: analysis record counts findings for unlisted analyzer %q", name)
			}
			if n < 0 {
				return fmt.Errorf("obsv: analysis record has %d findings for %q", n, name)
			}
			sum += n
		}
		if len(a.ByAnalyzer) > 0 && sum != a.Findings {
			return fmt.Errorf("obsv: analysis record by_analyzer sums to %d, findings is %d", sum, a.Findings)
		}
	}
	if s := m.Sim; s != nil {
		if s.Replications < 1 {
			return fmt.Errorf("obsv: sim record has %d replications", s.Replications)
		}
		if s.Workers < 0 {
			return fmt.Errorf("obsv: sim record has %d workers", s.Workers)
		}
		if s.Core != "" && s.Core != "calendar" && s.Core != "heap" {
			return fmt.Errorf("obsv: sim record names unknown core %q", s.Core)
		}
		if s.Events < 0 {
			return fmt.Errorf("obsv: sim record has %d events", s.Events)
		}
		for name, v := range map[string]float64{
			"response_mean": s.ResponseMean, "response_ci": s.ResponseCI,
			"slowdown_mean": s.SlowdownMean, "slowdown_ci": s.SlowdownCI,
			"loss_mean": s.LossMean, "loss_ci": s.LossCI,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("obsv: sim record %s is %v", name, v)
			}
		}
	}
	if c := m.Conform; c != nil {
		if c.Scenarios < 0 || c.Checks < 0 || c.Violations < 0 {
			return fmt.Errorf("obsv: conform record has negative counts")
		}
		if c.Checks > 0 && c.Scenarios == 0 {
			return fmt.Errorf("obsv: conform record has %d checks over zero scenarios", c.Checks)
		}
	}
	if e := m.Events; e != nil {
		if e.Emitted < 0 || e.Dropped < 0 || e.SinkErrs < 0 {
			return fmt.Errorf("obsv: events record has negative counts")
		}
		var byLevel int64
		for level, n := range e.ByLevel {
			if _, ok := ParseLevel(level); !ok {
				return fmt.Errorf("obsv: events record counts unknown level %q", level)
			}
			if n < 0 {
				return fmt.Errorf("obsv: events record has %d %s events", n, level)
			}
			byLevel += n
		}
		if len(e.ByLevel) > 0 && byLevel != e.Emitted {
			return fmt.Errorf("obsv: events record by_level sums to %d, emitted is %d", byLevel, e.Emitted)
		}
		if int64(len(e.Recorder)) > e.Emitted {
			return fmt.Errorf("obsv: events recorder holds %d events but only %d were emitted", len(e.Recorder), e.Emitted)
		}
		for i, ev := range e.Recorder {
			if ev.Seq == 0 || ev.Kind == "" {
				return fmt.Errorf("obsv: recorder event %d has no seq or kind", i)
			}
			if i > 0 && ev.Seq <= e.Recorder[i-1].Seq {
				return fmt.Errorf("obsv: recorder events out of order at %d (seq %d after %d)", i, ev.Seq, e.Recorder[i-1].Seq)
			}
		}
	}
	if l := m.Lint; l != nil {
		if l.Errors < 0 || l.Warnings < 0 {
			return fmt.Errorf("obsv: lint record has negative counts")
		}
		for i, d := range l.Diags {
			if d.Rule == "" || d.Msg == "" {
				return fmt.Errorf("obsv: lint diag %d has an empty rule or message", i)
			}
			if d.Severity != "error" && d.Severity != "warning" {
				return fmt.Errorf("obsv: lint diag %d has severity %q", i, d.Severity)
			}
		}
	}
	return nil
}

// WriteFile validates the manifest and writes it as indented JSON.
func (m *Manifest) WriteFile(path string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadManifest loads and validates a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("obsv: %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("obsv: %s: %w", path, err)
	}
	return &m, nil
}
