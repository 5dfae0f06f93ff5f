package main

import (
	"bytes"
	"testing"
)

// The lifecycle itself needs the repository root and a built daemon
// (make serve-smoke); these cases cover the usage errors.
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
