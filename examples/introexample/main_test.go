package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMainOutput runs the example end to end and checks the introduction's worked timeouts.
func TestMainOutput(t *testing.T) {
	out := captureStdout(t, main)
	for _, want := range []string{
		"3+eps            15.6667",
		"7+eps            36.5000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// captureStdout runs f with os.Stdout sent to a file and returns what
// it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = fh
	f()
	os.Stdout = saved
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
