package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"extra-arg"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: stdout %q, stderr %q", args, stdout.String(), stderr.String())
		}
	}
}

// TestRunLifecycle drives the whole smoke on the cheapest built-in
// figure: spec dump, daemon build and start, submit, poll, result,
// SIGTERM drain and manifest check. The smoke builds from the
// repository root, so the test runs there.
func TestRunLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the pepad binary")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join(wd, "..", "..")); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "figure6", "-dir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	for _, want := range []string{"submitted figure6", "job done", "manifest ok", "servesmoke: ok"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Errorf("daemon did not report a clean drain:\n%s", stderr.String())
	}
}
