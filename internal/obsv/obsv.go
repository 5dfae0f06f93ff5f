package obsv

import (
	"fmt"
	"time"
)

// DeriveStats records one state-space derivation run. A caller passes
// a pointer via pepa.DeriveOptions.Stats; the deriver fills it in
// whether or not derivation succeeds (partial counts are reported on
// error, which is useful when a model blows past its state cap).
// The JSON tags fix the field names used inside run manifests
// (manifest.go); Elapsed serialises as integer nanoseconds.
type DeriveStats struct {
	States      int           `json:"states"`      // reachable states found
	Transitions int           `json:"transitions"` // labelled transitions recorded
	Levels      int           `json:"levels"`      // BFS frontier depth (number of levels explored)
	DedupHits   int64         `json:"dedup_hits"`  // successor states that were already interned
	Workers     int           `json:"workers"`     // worker pool size (1 = inline on the caller, and the reference engine)
	Elapsed     time.Duration `json:"elapsed_ns"`  // wall time of the exploration

	// Integer-coded engine counters (zero on the legacy string-keyed
	// reference path). LeafCodes is the number of distinct sequential
	// derivatives assigned integer codes at compile time — the
	// alphabet the fixed-width state tuples draw from. HashCollisions
	// counts fresh state insertions whose 64-bit tuple hash was
	// already occupied (resolved by tuple comparison); a value that is
	// not a vanishing fraction of States means the tuple hash is
	// misbehaving.
	LeafCodes      int   `json:"leaf_codes,omitempty"`
	HashCollisions int64 `json:"hash_collisions,omitempty"`
}

// StatesPerSec returns the exploration throughput, or 0 for an
// instantaneous run.
func (s *DeriveStats) StatesPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.States) / s.Elapsed.Seconds()
}

func (s *DeriveStats) String() string {
	base := fmt.Sprintf("derive: %d states, %d transitions, %d levels, %d dedup hits, %d workers, %v (%.0f states/s)",
		s.States, s.Transitions, s.Levels, s.DedupHits, s.Workers, s.Elapsed.Round(time.Microsecond), s.StatesPerSec())
	if s.LeafCodes > 0 {
		base += fmt.Sprintf(", %d leaf codes, %d hash collisions", s.LeafCodes, s.HashCollisions)
	}
	return base
}

// SolveStats records one steady-state solve. A caller passes a pointer
// via linalg.Options.Stats.
type SolveStats struct {
	Solver     string        `json:"solver"`              // the stage that answered: "gth", "bicgstab", "gauss-seidel" or "power"
	Iterations int           `json:"iterations"`          // sweeps or Krylov steps performed
	FinalDiff  float64       `json:"final_diff"`          // last successive-iterate l-inf difference (bicgstab: residual estimate)
	Residual   float64       `json:"residual,omitempty"`  // max|πQ| of the returned π
	Converged  bool          `json:"converged"`           // reached the requested tolerance
	Elapsed    time.Duration `json:"elapsed_ns"`          // wall time of the solve
	Fallbacks  []string      `json:"fallbacks,omitempty"` // why each earlier stage of linalg.SteadyState failed
}

func (s *SolveStats) String() string {
	state := "converged"
	if !s.Converged {
		state = "NOT converged"
	}
	out := fmt.Sprintf("%s: %d iterations, final diff %.3g, %s, %v, residual %.3g",
		s.Solver, s.Iterations, s.FinalDiff, state, s.Elapsed.Round(time.Microsecond), s.Residual)
	for _, f := range s.Fallbacks {
		out += "; after fallback: " + f
	}
	return out
}

// Progress is one tick of a long-running computation: a BFS level
// completing during derivation, or a convergence check during an
// iterative solve.
type Progress struct {
	Phase string  // "derive" or the solver name
	Step  int     // BFS level or sweep number
	Count int     // total states interned / matrix dimension
	Value float64 // frontier size (derive) or current l-inf diff (solve)
}

// ProgressFunc receives Progress ticks. Implementations must be cheap
// and must not retain the struct; they are called from the hot loop
// (serial section) of the deriver and solvers. A nil ProgressFunc is
// always permitted and means "no reporting".
type ProgressFunc func(Progress)
