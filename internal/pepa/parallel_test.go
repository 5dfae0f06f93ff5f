package pepa

import (
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pepatags/internal/obsv"
)

// requireIdentical asserts that two derived state spaces are
// bit-identical: same state numbering, same labels, same transition
// list (order included), same leaf derivatives.
func requireIdentical(t *testing.T, want, got *StateSpace) {
	t.Helper()
	if want.Chain.NumStates() != got.Chain.NumStates() {
		t.Fatalf("state counts differ: %d vs %d", want.Chain.NumStates(), got.Chain.NumStates())
	}
	if want.NumLeaf != got.NumLeaf {
		t.Fatalf("leaf counts differ: %d vs %d", want.NumLeaf, got.NumLeaf)
	}
	for i := 0; i < want.Chain.NumStates(); i++ {
		if want.Chain.Label(i) != got.Chain.Label(i) {
			t.Fatalf("state %d label differs: %q vs %q", i, want.Chain.Label(i), got.Chain.Label(i))
		}
		for l := 0; l < want.NumLeaf; l++ {
			if want.LeafDerivative(i, l) != got.LeafDerivative(i, l) {
				t.Fatalf("state %d leaf %d differs: %q vs %q", i, l, want.LeafDerivative(i, l), got.LeafDerivative(i, l))
			}
		}
	}
	wt, gt := want.Chain.Transitions(), got.Chain.Transitions()
	if len(wt) != len(gt) {
		t.Fatalf("transition counts differ: %d vs %d", len(wt), len(gt))
	}
	for k := range wt {
		if wt[k] != gt[k] {
			t.Fatalf("transition %d differs: %+v vs %+v", k, wt[k], gt[k])
		}
	}
}

// deriveWorkerCounts are the pool sizes every differential check runs
// the coded engine at: the inline path, a pool smaller than, at and
// above the usual CPU count.
var deriveWorkerCounts = []int{1, 2, 3, 8}

// TestParallelDeriveMatchesSerialOnRandomModels holds the coded engine
// at every worker count against the string-keyed serial reference.
func TestParallelDeriveMatchesSerialOnRandomModels(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 2026))
	for trial := 0; trial < 20; trial++ {
		m := randomModel(rng)
		ref, err := Derive(m, DeriveOptions{Reference: true})
		if err != nil {
			t.Fatalf("trial %d: reference derive: %v", trial, err)
		}
		for _, workers := range deriveWorkerCounts {
			got, err := Derive(m, DeriveOptions{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d: coded derive (%d workers): %v", trial, workers, err)
			}
			requireIdentical(t, ref, got)
		}
	}
}

func TestParallelDeriveMatchesSerialOnAppendixModels(t *testing.T) {
	for _, name := range []string{"appendixA_random.pepa", "appendixB_shortestqueue.pepa"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "models", name))
		if err != nil {
			t.Fatal(err)
		}
		m, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := Derive(m, DeriveOptions{Reference: true})
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		for _, workers := range deriveWorkerCounts {
			got, err := Derive(m, DeriveOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %d workers: %v", name, workers, err)
			}
			requireIdentical(t, ref, got)
		}
	}
}

// Every worker count must report the same errors as the reference
// engine, and all must match the shared sentinels with errors.Is.
func TestParallelDeriveErrors(t *testing.T) {
	check := func(src string, want error, opts DeriveOptions) {
		t.Helper()
		m, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		ropts := opts
		ropts.Reference = true
		_, rerr := Derive(m, ropts)
		if !errors.Is(rerr, want) {
			t.Fatalf("reference error %v is not %v", rerr, want)
		}
		for _, workers := range []int{1, 4} {
			popts := opts
			popts.Workers = workers
			_, perr := Derive(m, popts)
			if perr == nil {
				t.Fatalf("%d workers: expected an error, got none", workers)
			}
			if !errors.Is(perr, want) {
				t.Fatalf("%d workers: error %q is not %v", workers, perr, want)
			}
			if rerr.Error() != perr.Error() {
				t.Fatalf("errors differ:\n  reference: %v\n  %d workers: %v", rerr, workers, perr)
			}
		}
	}
	// Dead sync: after the free a-step, P1 only offers sync (blocked:
	// Q never enables it) and Q only offers sync2 (blocked likewise).
	// The pre-flight lint rejects this statically, before any BFS.
	deadSync := "P = (a, 1.0).P1;\nP1 = (sync, 1.0).P1;\nQ = (sync2, 1.0).Q;\nP <sync, sync2> Q"
	check(deadSync, ErrDeadlock, DeriveOptions{})
	// With the lint pre-flight disabled the same model deadlocks
	// mid-BFS; the dynamic check wraps the same sentinel.
	check(deadSync, ErrDeadlock, DeriveOptions{SkipLint: true})
	// Passive action unsynchronised at top level: caught statically,
	// and dynamically under SkipLint.
	passive := "P = (a, T).P;\nQ = (b, 1.0).Q;\nP || Q"
	check(passive, ErrUnsyncPassive, DeriveOptions{})
	check(passive, ErrUnsyncPassive, DeriveOptions{SkipLint: true})
	// A deadlock no static rule sees (both syncs are live, but each
	// side wants the other's action first) still surfaces from BFS.
	check("A = (s1, 1.0).A1;\nA1 = (s2, 1.0).A;\nB = (s2, 1.0).B1;\nB1 = (s1, 1.0).B;\nA <s1, s2> B",
		ErrDeadlock, DeriveOptions{})
}

func TestParallelDeriveMaxStatesOverflow(t *testing.T) {
	m, err := Parse("P0 = (a, 1.0).P1;\nP1 = (a, 1.0).P2;\nP2 = (a, 1.0).P3;\nP3 = (a, 1.0).P0;\nQ = (b, 2.0).Q;\nP0 || Q")
	if err != nil {
		t.Fatal(err)
	}
	_, serr := Derive(m, DeriveOptions{MaxStates: 2})
	_, perr := Derive(m, DeriveOptions{MaxStates: 2, Workers: 4})
	if serr == nil || perr == nil {
		t.Fatalf("expected overflow, got serial=%v parallel=%v", serr, perr)
	}
	if serr.Error() != perr.Error() {
		t.Fatalf("errors differ:\n  serial:   %v\n  parallel: %v", serr, perr)
	}
}

// cyclesSource renders n independent 4-cycles in parallel: 4^n states,
// with BFS levels wide enough to fan out over any worker count.
func cyclesSource(n int) string {
	var sb strings.Builder
	sb.WriteString("C0 = (c, 1.0).C1;\nC1 = (c, 1.0).C2;\nC2 = (c, 1.0).C3;\nC3 = (c, 1.0).C0;\n")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(" || ")
		}
		sb.WriteString("C0")
	}
	return sb.String()
}

// MaxStates bounds every interned state, not every completed level:
// the 268-million-state product of 14 cycles must stop within one
// state per worker of the cap, and the partial count in DeriveStats
// must say where it stopped.
func TestDeriveMaxStatesBoundsInternedStates(t *testing.T) {
	m, err := Parse(cyclesSource(14))
	if err != nil {
		t.Fatal(err)
	}
	const maxStates = 40000
	for _, workers := range []int{1, 4} {
		var st obsv.DeriveStats
		_, err := Derive(m, DeriveOptions{MaxStates: maxStates, Workers: workers, Stats: &st})
		if err == nil || err.Error() != "pepa: state space exceeds 40000 states" {
			t.Fatalf("%d workers: want the overflow error, got %v", workers, err)
		}
		if st.States <= maxStates || st.States > maxStates+workers {
			t.Fatalf("%d workers: stopped at %d states, want (%d, %d]", workers, st.States, maxStates, maxStates+workers)
		}
	}
}

// An overflow and a model error can fall in the same BFS level; every
// worker count must report the one a serial scan meets first, for every
// cap. P walks to a state whose passive action is unsynchronised while
// three cycles widen each level.
func TestDeriveFirstErrorAcrossCaps(t *testing.T) {
	src := "C0 = (c, 1.0).C1;\nC1 = (c, 1.0).C2;\nC2 = (c, 1.0).C3;\nC3 = (c, 1.0).C0;\n" +
		"P0 = (a, 1.0).P1;\nP1 = (a, 1.0).P2;\nP2 = (a, 1.0).P3;\nP3 = (p, T).P3;\n" +
		"C0 || C0 || C0 || P0"
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for maxStates := 1; maxStates <= 260; maxStates++ {
		_, rerr := Derive(m, DeriveOptions{MaxStates: maxStates, SkipLint: true, Reference: true})
		if rerr == nil {
			t.Fatalf("cap %d: reference derived a model with an unsynchronised passive", maxStates)
		}
		for _, workers := range deriveWorkerCounts {
			_, err := Derive(m, DeriveOptions{MaxStates: maxStates, SkipLint: true, Workers: workers})
			if err == nil || err.Error() != rerr.Error() {
				t.Fatalf("cap %d, %d workers: got %v, reference %v", maxStates, workers, err, rerr)
			}
		}
	}
}

func TestDeriveStatsFilled(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	m := randomModel(rng)
	for _, workers := range []int{1, 4} {
		var st obsv.DeriveStats
		var ticks int
		ss, err := Derive(m, DeriveOptions{
			Workers:  workers,
			Stats:    &st,
			Progress: func(obsv.Progress) { ticks++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.States != ss.Chain.NumStates() {
			t.Errorf("workers=%d: stats states %d != %d", workers, st.States, ss.Chain.NumStates())
		}
		if st.Transitions != ss.Chain.NumTransitions() {
			t.Errorf("workers=%d: stats transitions %d != %d", workers, st.Transitions, ss.Chain.NumTransitions())
		}
		if st.Levels <= 0 || st.Workers != workers || st.Elapsed <= 0 {
			t.Errorf("workers=%d: implausible stats %+v", workers, st)
		}
		if st.DedupHits <= 0 {
			t.Errorf("workers=%d: expected dedup hits on a cyclic model, got %d", workers, st.DedupHits)
		}
		if ticks == 0 {
			t.Errorf("workers=%d: progress callback never fired", workers)
		}
		if s := st.String(); !strings.Contains(s, "states") {
			t.Errorf("stats string %q", s)
		}
	}
}

// Passing a negative worker count must mean "one per CPU" and still
// produce the reference chain.
func TestDeriveAutoWorkers(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	m := randomModel(rng)
	ref, err := Derive(m, DeriveOptions{Reference: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Derive(m, DeriveOptions{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, par)
}
