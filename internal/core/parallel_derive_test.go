package core

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pepatags/internal/dist"
	"pepatags/internal/linalg"
	"pepatags/internal/pepa"
)

// The tentpole cross-validation: on the paper's three models (the
// Figure 3 TAG system, Appendix A random allocation, Appendix B
// shortest queue), parallel derivation must reproduce the serial chain
// bit for bit, and power iteration on the parallel-derived chain must
// agree with GTH to 1e-10 on the stationary vector.

func paperModelSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{
		"tag-figure3": NewTAGExp(5, 10, 42, 6, 10, 10).PEPASource(),
	}
	for key, file := range map[string]string{
		"random-appendixA":        "appendixA_random.pepa",
		"shortestqueue-appendixB": "appendixB_shortestqueue.pepa",
	} {
		b, err := os.ReadFile(filepath.Join("..", "..", "models", file))
		if err != nil {
			t.Fatal(err)
		}
		srcs[key] = string(b)
	}
	return srcs
}

func TestParallelDeriveMatchesSerialOnPaperModels(t *testing.T) {
	for name, src := range paperModelSources(t) {
		t.Run(name, func(t *testing.T) {
			m, err := pepa.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := pepa.Derive(m, pepa.DeriveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			par, err := pepa.Derive(m, pepa.DeriveOptions{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if serial.Chain.NumStates() != par.Chain.NumStates() {
				t.Fatalf("state counts differ: %d vs %d", serial.Chain.NumStates(), par.Chain.NumStates())
			}
			st, pt := serial.Chain.Transitions(), par.Chain.Transitions()
			if len(st) != len(pt) {
				t.Fatalf("transition counts differ: %d vs %d", len(st), len(pt))
			}
			for k := range st {
				if st[k] != pt[k] {
					t.Fatalf("transition %d differs: %+v vs %+v", k, st[k], pt[k])
				}
			}
			for i := 0; i < serial.Chain.NumStates(); i++ {
				if serial.Chain.Label(i) != par.Chain.Label(i) {
					t.Fatalf("state %d label differs: %q vs %q", i, serial.Chain.Label(i), par.Chain.Label(i))
				}
			}

			// Power iteration vs the GTH direct method.
			q := par.Chain.Generator()
			ref, err := linalg.SteadyStateGTH(q.ToDense())
			if err != nil {
				t.Fatal(err)
			}
			pow, err := linalg.SteadyStatePower(q, linalg.Options{Eps: 1e-14})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if d := math.Abs(ref[i] - pow[i]); d > 1e-10 {
					t.Fatalf("pi[%d]: GTH %g vs power %g (diff %g)", i, ref[i], pow[i], d)
				}
			}
		})
	}
}

// Stress test for the race detector: derive the hyper-exponential TAG
// model concurrently from several goroutines, each itself running
// multi-worker exploration, and require identical state counts.
func TestConcurrentH2DeriveIsRaceFreeAndDeterministic(t *testing.T) {
	src := NewTAGH2(11, dist.H2ForTAG(0.1, 0.99, 100), 12, 6, 6, 6).PEPASource()
	m, err := pepa.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pepa.Derive(m, pepa.DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	counts := make([]int, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Every goroutine shares the parsed model: Derive must
			// treat *Model as read-only for this to be race-free.
			ss, err := pepa.Derive(m, pepa.DeriveOptions{Workers: 2})
			if err != nil {
				errs[g] = err
				return
			}
			counts[g] = ss.Chain.NumStates()
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if counts[g] != ref.Chain.NumStates() {
			t.Fatalf("goroutine %d: %d states, want %d", g, counts[g], ref.Chain.NumStates())
		}
	}
}
