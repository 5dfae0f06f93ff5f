package conform

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
)

// ReproSchema identifies the repro file format.
const ReproSchema = "pepatags/conform-repro/v1"

// Repro is a self-contained record of one oracle violation: enough to
// rerun the exact check without the generator. Committed under a
// package's testdata/repros directory, it becomes a permanent
// regression case picked up by the repro test table.
type Repro struct {
	Schema string `json:"schema"`
	// Seed and Index locate the scenario in the generating run, for
	// forensics; the Scenario itself is what reruns the check.
	Seed     uint64   `json:"seed"`
	Index    int      `json:"index"`
	Oracle   string   `json:"oracle"`
	Detail   string   `json:"detail"`
	Scenario Scenario `json:"scenario"`
}

// WriteRepro writes the repro as indented JSON into dir, named after
// the oracle and a content hash so reruns are idempotent. It returns
// the file path.
func WriteRepro(dir string, r Repro) (string, error) {
	r.Schema = ReproSchema
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("conform: marshal repro: %w", err)
	}
	data = append(data, '\n')
	h := fnv.New32a()
	h.Write(data)
	slug := strings.NewReplacer("/", "-", " ", "-").Replace(r.Oracle)
	path := filepath.Join(dir, fmt.Sprintf("repro-%s-%08x.json", slug, h.Sum32()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("conform: create repro dir: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("conform: write repro: %w", err)
	}
	return path, nil
}

// ReadRepro loads and validates one repro file. No program path calls
// it: LoadRepros and the conform tests read repro files through it.
func ReadRepro(path string) (Repro, error) {
	var r Repro
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("conform: parse repro %s: %w", path, err)
	}
	if r.Schema != ReproSchema {
		return r, fmt.Errorf("conform: repro %s has schema %q, want %q", path, r.Schema, ReproSchema)
	}
	if r.Scenario.Kind == "" {
		return r, fmt.Errorf("conform: repro %s has no scenario", path)
	}
	return r, nil
}

// LoadRepros reads every *.json repro under dir, sorted by name. A
// missing directory is an empty table, not an error. No program path
// calls it: the conform tests replay the committed repro corpus
// through it.
func LoadRepros(dir string) ([]Repro, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	repros := make([]Repro, 0, len(paths))
	for _, p := range paths {
		r, err := ReadRepro(p)
		if err != nil {
			return nil, err
		}
		repros = append(repros, r)
	}
	return repros, nil
}
