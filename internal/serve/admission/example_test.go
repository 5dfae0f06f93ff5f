package admission_test

import (
	"fmt"

	"pepatags/internal/serve/admission"
)

// ExampleController walks the threshold policy through a burst: each
// admitted two-point job adds two estimated seconds to the backlog,
// and the bound of three seconds trips on the third submission.
func ExampleController() {
	est := admission.NewEstimator(1, 1) // 1 s per point, 1 s per fresh shape
	ctrl := admission.NewController(admission.Threshold{Bound: 3}, est, 1)
	for i := 0; i < 4; i++ {
		_, d := ctrl.Submit(2, 0)
		fmt.Printf("job %d: admit=%v backlog=%.0fs\n", i, d.Admit, d.BacklogSeconds)
	}
	// Output:
	// job 0: admit=true backlog=0s
	// job 1: admit=true backlog=2s
	// job 2: admit=false backlog=4s
	// job 3: admit=false backlog=4s
}

// ExampleThreshold admits a job only while the backlog of admitted
// work is under the bound, whatever the job's own cost.
func ExampleThreshold() {
	pol := admission.Threshold{Bound: 30}
	fmt.Println(pol, pol.Admit(29, 5), pol.Admit(30, 0.1))
	// Output:
	// threshold(bound=30s) true false
}
