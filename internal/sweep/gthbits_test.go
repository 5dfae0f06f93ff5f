package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pepatags/internal/core"
	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
	"pepatags/internal/linalg"
	"pepatags/internal/obsv"
)

// TestGTHBitsGolden pins the direct stage bit for bit against
// testdata/gth_bits.golden: one line per chain of up to
// linalg.DenseCutoff states with a hash of the bits of the π that
// linalg.SteadyState answers and of the π of linalg.SteadyStateGTH on
// the dense generator. The chains are every TAGExp chain of up to
// DenseCutoff states for n ∈ {1,2,3,4,6}, K ∈ {2..10},
// λ ∈ {3, 7.5, 11} and t ∈ {5, 20, 50}; a few small TAGH2 chains; the
// Figure-8 round-robin and shortest-queue baselines; and 50 seeded
// random irreducible generators of 2–400 states with sparse rows. A
// change to the elimination's arithmetic or its order moves some line
// here. Run with -update to rewrite the golden (with the Krylov one);
// the golden is for amd64 only, like that one.
func TestGTHBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden holds amd64 bits; %s may fuse multiply-adds", runtime.GOARCH)
	}
	var out strings.Builder
	solve := func(name string, q *linalg.CSR) {
		t.Helper()
		var st obsv.SolveStats
		pi, err := linalg.SteadyState(q, linalg.Options{Stats: &st})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Solver != "gth" {
			t.Errorf("%s: answered by %q, not the direct stage", name, st.Solver)
		}
		d := q.ToDense()
		before := slices.Clone(d.Data)
		gth, err := linalg.SteadyStateGTH(d)
		if err != nil {
			t.Fatalf("%s: SteadyStateGTH: %v", name, err)
		}
		if !slices.Equal(d.Data, before) {
			t.Errorf("%s: SteadyStateGTH changed its input matrix", name)
		}
		hs, hg := newBitsHash(), newBitsHash()
		hs.add(pi)
		hg.add(gth)
		fmt.Fprintf(&out, "%s states %d steadystate %s gth %s\n", name, q.Rows, hs, hg)
	}

	// The TAGExp grid. The state count depends on n and K only.
	for _, n := range []int{1, 2, 3, 4, 6} {
		for k := 2; k <= 10; k++ {
			if core.NewTAGExp(3, 10, 5, n, k, k).Build().NumStates() > linalg.DenseCutoff {
				continue
			}
			for _, lambda := range []float64{3, 7.5, 11} {
				for _, tt := range []float64{5, 20, 50} {
					ch := core.NewTAGExp(lambda, 10, tt, n, k, k).Build()
					solve(fmt.Sprintf("tagexp n=%d K=%d lambda=%g t=%g", n, k, lambda, tt), ch.Generator())
				}
			}
		}
	}

	// Small TAGH2 chains: the Figure-11 service at two proportions.
	for _, n := range []int{1, 2} {
		for _, k := range []int{2, 3, 4} {
			for _, alpha := range []float64{0.9, 0.99} {
				ch := core.NewTAGH2(11, dist.H2ForTAG(0.1, alpha, 10), 20, n, k, k).Build()
				if ch.NumStates() > linalg.DenseCutoff {
					continue
				}
				solve(fmt.Sprintf("tagh2 n=%d K=%d alpha=%g", n, k, alpha), ch.Generator())
			}
		}
	}

	// The Figure-8 baselines that solve a chain.
	for _, lambda := range []float64{5, 7, 9, 11} {
		exp := dist.NewExponential(10)
		for _, b := range []struct {
			name string
			ch   *ctmc.Chain
		}{
			{"round-robin", core.NewRoundRobinTwoNode(lambda, exp, 10).Build()},
			{"shortest-queue", core.NewShortestQueue(lambda, exp, 10).Build()},
		} {
			solve(fmt.Sprintf("figure8 %s lambda=%g", b.name, lambda), b.ch.Generator())
		}
	}

	// Seeded random irreducible generators: a ring through every state
	// plus up to three more transitions per state.
	rng := splitmix(27)
	for trial := range 50 {
		n := 2 + int(rng.next()%399)
		coo := linalg.NewCOO(n, n)
		outflow := make([]float64, n)
		add := func(i, j int) {
			r := 0.1 + 10*rng.float()
			coo.Add(i, j, r)
			outflow[i] += r
		}
		for i := range n {
			add(i, (i+1)%n)
			for range rng.next() % 4 {
				if j := int(rng.next() % uint64(n)); j != i {
					add(i, j)
				}
			}
		}
		for i := range n {
			coo.Add(i, i, -outflow[i])
		}
		solve(fmt.Sprintf("random trial=%d", trial), coo.ToCSR())
	}

	path := filepath.Join("testdata", "gth_bits.golden")
	if *updateKernelBits {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d moved:\n got %s\nwant %s", i+1, g, w)
		}
	}
}

// splitmix is the SplitMix64 generator: a fixed sequence for a seed on
// every platform and Go release, which a golden needs.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }
