package linalg

import (
	"testing"

	"pepatags/internal/numeric"
	"pepatags/internal/obsv"
)

// TestSolverEvents: with an event log attached, a solve streams its
// residual as "solve.residual" debug events every tickEvery sweeps and
// finishes with a "solve.done" summary carrying the outcome. The chain
// needs several hundred Gauss-Seidel sweeps, so several ticks fire.
func TestSolverEvents(t *testing.T) {
	log := obsv.NewEventLog(obsv.EventLogConfig{RecorderSize: 1024})
	csr := mm1kGenerator(5, 10, 100).ToCSR()
	pi, err := SteadyStateGaussSeidel(csr, Options{Events: log})
	if err != nil {
		t.Fatal(err)
	}
	want := mm1kExact(5, 10, 100)
	if d := numeric.MaxAbsDiff(pi, want); d > 1e-9 {
		t.Fatalf("solution drifted with events attached: diff %g", d)
	}

	var residuals int
	var done *obsv.Event
	for _, ev := range log.Recorder() {
		switch ev.Kind {
		case "solve.residual":
			residuals++
			if ev.Level != "debug" || ev.Msg != "gauss-seidel" {
				t.Fatalf("residual event: %+v", ev)
			}
		case "solve.done":
			e := ev
			done = &e
		}
	}
	if residuals == 0 {
		t.Fatal("no solve.residual events streamed")
	}
	if done == nil {
		t.Fatal("no solve.done event")
	}
	if done.Fields["converged"] != 1 || done.Fields["iterations"] < tickEvery {
		t.Fatalf("solve.done fields: %+v", done.Fields)
	}
	if want := int(done.Fields["iterations"]) / tickEvery; residuals != want {
		t.Fatalf("%d solve.residual events over %g sweeps, want one every %d (%d)",
			residuals, done.Fields["iterations"], tickEvery, want)
	}
	if done.Fields["final_diff"] >= DefaultEps {
		t.Fatalf("solve.done final_diff %g not below eps", done.Fields["final_diff"])
	}
}
