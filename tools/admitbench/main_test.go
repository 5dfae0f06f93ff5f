package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunTinyGrid drives the whole benchmark, calibration included,
// on a tiny load grid and checks that every load point prints a row.
func TestRunTinyGrid(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-points", "2", "-jobs", "6", "-warm", "2", "-loads", "0.5,2"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "admitbench: Exp(2)-point jobs") || !strings.Contains(out, "p_rej model") {
		t.Fatalf("missing calibration or header line:\n%s", out)
	}
	if rows := strings.Count(out, "\n") - 3; rows != 2 {
		t.Fatalf("want one row per load point, got %d:\n%s", rows, out)
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{{"-loads", "0.5,x"}, {"-loads", "-1"}, {"-no-such-flag"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
