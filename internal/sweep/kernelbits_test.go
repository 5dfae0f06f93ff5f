package sweep

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pepatags/internal/core"
	"pepatags/internal/dist"
	"pepatags/internal/linalg"
	"pepatags/internal/obsv"
)

var updateKernelBits = flag.Bool("update", false, "rewrite testdata/kernel_bits.golden and testdata/gth_bits.golden from the current kernels")

// bitsHash folds the bits of vectors, in order, into one FNV-1a hash.
type bitsHash struct{ hash.Hash64 }

func newBitsHash() bitsHash { return bitsHash{fnv.New64a()} }

func (h bitsHash) add(v []float64) {
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func (h bitsHash) String() string { return fmt.Sprintf("%016x", h.Sum64()) }

// exact formats a float so that it parses back to the same bits.
func exact(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// TestKernelBitsGolden pins the Krylov kernel bit for bit against
// testdata/kernel_bits.golden: a hash of the bits of every π, each
// solve's iteration count and the measures, for the four Figure-8
// opt-t searches through Run, for one cold TAGH2 shape of Figure 11,
// and for one first-passage system above linalg.DenseCutoff unknowns
// solved by linalg.SolveBiCGSTAB. A change to the kernel's arithmetic
// or its order moves some bit here. Run with -update to rewrite the
// golden. The golden is for amd64 only: other architectures may fuse a
// multiply and an add into one rounding.
func TestKernelBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden holds amd64 bits; %s may fuse multiply-adds", runtime.GOARCH)
	}
	if raceEnabled {
		t.Skip("about 200 solves of a 4,331-state chain; skipped under the race detector")
	}
	var out strings.Builder

	// Figure 8 at its short parameters: the opt-t searches only, since
	// the baselines never reach the Krylov kernel.
	spec := &Spec{Schema: SpecSchema, Name: "figure8-optt", Groups: []Group{{
		Point: Point{Series: "tag", Model: "opt-t", Metric: "min-queue", N: 6, K1: 10, K2: 10, TLo: 12, THi: 60,
			Service: ServiceSpec{Kind: "exp", Mu: 10}},
		Axes: []Axis{{Field: "lambda", Values: []float64{5, 7, 9, 11}}},
	}}}
	cache := NewCache()
	var (
		h     = newBitsHash()
		iters []string
		total int
	)
	cache.observe = func(pi []float64, st obsv.SolveStats) {
		if st.Solver != "bicgstab" {
			t.Errorf("solve %d answered by %q, not the Krylov stage", len(iters), st.Solver)
		}
		h.add(pi)
		iters = append(iters, strconv.Itoa(st.Iterations))
		total += st.Iterations
	}
	res, err := Run(spec, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "figure8 solves %d iterations %d cache %d hits %d misses\n", len(iters), total, res.CacheHits, res.CacheMisses)
	fmt.Fprintf(&out, "figure8 pi %s\n", h)
	fmt.Fprintf(&out, "figure8 per-solve iterations %s\n", strings.Join(iters, " "))
	for _, r := range res.Rows {
		keys := make([]string, 0, len(r.Measures))
		for k := range r.Measures {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		fmt.Fprintf(&out, "figure8 row x=%s", exact(r.X))
		for _, k := range keys {
			fmt.Fprintf(&out, " %s=%s", k, exact(r.Measures[k]))
		}
		out.WriteByte('\n')
	}

	// One cold Figure-11 shape: H2 service (alpha 0.99) at t = 33.
	h2 := core.TAGH2{Lambda: 11, Service: dist.H2ForTAG(0.1, 0.99, 10), T: 33, N: 6, K1: 10, K2: 10}
	ch := h2.Build()
	var st obsv.SolveStats
	pi, err := linalg.SteadyState(ch.Generator(), linalg.Options{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	h = newBitsHash()
	h.add(pi)
	m := h2.MeasuresFrom(ch, pi)
	fmt.Fprintf(&out, "figure11 tagh2 states %d solver %s iterations %d pi %s\n", len(pi), st.Solver, st.Iterations, h)
	fmt.Fprintf(&out, "figure11 measures L1=%s L2=%s W=%s throughput=%s loss=%s\n",
		exact(m.L1), exact(m.L2), exact(m.W), exact(m.Throughput), exact(m.Loss))

	// One first-passage system: the expected time to empty the
	// Figure-8 chain at lambda = 5, t = 51, over its 4,330 other states.
	exp := core.TAGExp{Lambda: 5, Mu: 10, T: 51, N: 6, K1: 10, K2: 10}.Build()
	ht, err := exp.ExpectedHittingTimes(func(s int) bool { return s == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if len(ht)-1 <= linalg.DenseCutoff {
		t.Fatalf("passage system has %d unknowns, not above DenseCutoff", len(ht)-1)
	}
	h = newBitsHash()
	h.add(ht)
	fmt.Fprintf(&out, "passage unknowns %d h %s max %s\n", len(ht)-1, h, exact(slices.Max(ht)))

	path := filepath.Join("testdata", "kernel_bits.golden")
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
	if got := out.String(); got != string(want) {
		t.Fatalf("kernel bits moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}
