package sweep

import (
	"runtime"
	"testing"

	"pepatags/internal/core"
	"pepatags/internal/linalg"
)

// TestWarmSolveAllocations pins what a warm opt-t evaluation
// allocates once its shape is cached and the predictor holds three
// solves. Past linalg.DenseCutoff states the Krylov stage answers:
// the boxed model, a couple of objects and no state vector, whatever
// the size of the state space. The rates, the generator values, the
// Krylov work vectors and answers, the residual checks and the
// measures all live in the shape's reused buffers, and π is copied
// into the predictor's oldest vector. Up to DenseCutoff states the GTH
// stage answers, in a work matrix from a pool: the evaluation also
// allocates the π that stage returns, and well under one n×n matrix.
func TestWarmSolveAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	allocs := func(n, k int) (objects, bytes float64, states int) {
		eval := continuation(NewCache(), func(t int) core.SkeletonModel {
			return core.TAGExp{Lambda: 5, Mu: 10, T: float64(t), N: n, K1: k, K2: k}
		})
		tt := 10
		step := func() {
			m, err := eval(tt)
			if err != nil {
				t.Fatal(err)
			}
			states = m.States
			tt++
		}
		for range 4 { // the miss, then enough solves to fill the predictor
			step()
		}
		objects = testing.AllocsPerRun(20, step)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 20 {
			step()
		}
		runtime.ReadMemStats(&after)
		return objects, float64(after.TotalAlloc-before.TotalAlloc) / 20, states
	}
	for _, shape := range [][2]int{{4, 4}, {3, 8}, {6, 10}} {
		objects, bytes, states := allocs(shape[0], shape[1])
		vectors := bytes / float64(8*states)
		t.Logf("%d states: %v objects and %.0f bytes (%.2f state vectors) per warm evaluation", states, objects, bytes, vectors)
		if states <= linalg.DenseCutoff {
			// An eighth of a matrix leaves room for the odd pool miss
			// when the goroutine moves to another P between solves.
			if matrix := float64(8 * states * states); objects > 3 || bytes > matrix/8 {
				t.Errorf("%d states: a warm evaluation allocates %v objects and %.0f bytes (%.3f n×n matrices); want at most 3 and 1/8",
					states, objects, bytes, bytes/matrix)
			}
			continue
		}
		if objects > 2 || vectors > 0.25 {
			t.Errorf("%d states: a warm evaluation allocates %v objects and %.2f state vectors; want at most 2 and 0.25",
				states, objects, vectors)
		}
	}
}
