package workload

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"pepatags/internal/dist"
	"pepatags/internal/numeric"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed+1)) }

func TestPoissonMeanRate(t *testing.T) {
	p := NewPoisson(5)
	r := rng(1)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += p.NextInterarrival(r)
	}
	if !numeric.AlmostEqual(sum/n, 0.2, 0.02) {
		t.Fatalf("mean interarrival %v want 0.2", sum/n)
	}
	if p.MeanRate() != 5 {
		t.Fatal("MeanRate")
	}
}

func TestMMPP2MeanRate(t *testing.T) {
	m := NewMMPP2(20, 1, 0.1, 0.1)
	// pi1 = 0.5: mean rate 10.5.
	if !numeric.AlmostEqual(m.MeanRate(), 10.5, 1e-12) {
		t.Fatalf("MeanRate %v", m.MeanRate())
	}
	r := rng(7)
	var sum float64
	const n = 300000
	for i := 0; i < n; i++ {
		sum += m.NextInterarrival(r)
	}
	empRate := float64(n) / sum
	if math.Abs(empRate-10.5)/10.5 > 0.05 {
		t.Fatalf("empirical rate %v want ~10.5", empRate)
	}
}

func TestMMPP2Burstiness(t *testing.T) {
	// Interarrival SCV of a bursty MMPP must exceed Poisson's 1.
	m := NewMMPP2(50, 0.5, 0.2, 0.2)
	r := rng(3)
	var s, s2 float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := m.NextInterarrival(r)
		s += x
		s2 += x * x
	}
	mean := s / n
	scv := (s2/n - mean*mean) / (mean * mean)
	if scv < 1.5 {
		t.Fatalf("MMPP2 interarrival SCV %v should be well above 1", scv)
	}
}

func TestStochasticSourceLimit(t *testing.T) {
	src := &StochasticSource{Arrivals: NewPoisson(1), Sizes: dist.NewExponential(1), Limit: 5}
	r := rng(2)
	var got []Job
	for {
		j, ok := src.Next(r)
		if !ok {
			break
		}
		got = append(got, j)
	}
	if len(got) != 5 {
		t.Fatalf("jobs %d want 5", len(got))
	}
	// Arrivals strictly increasing, IDs sequential.
	for i := 1; i < len(got); i++ {
		if got[i].Arrival <= got[i-1].Arrival {
			t.Fatal("arrivals not increasing")
		}
		if got[i].ID != got[i-1].ID+1 {
			t.Fatal("IDs not sequential")
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := NewTrace([]float64{0, 0, 1}, []float64{4, 5, 6})
	var sizes []float64
	for {
		j, ok := tr.Next(nil)
		if !ok {
			break
		}
		sizes = append(sizes, j.Size)
	}
	if len(sizes) != 3 || sizes[0] != 4 || sizes[2] != 6 {
		t.Fatalf("sizes %v", sizes)
	}
	// Exhausted.
	if _, ok := tr.Next(nil); ok {
		t.Fatal("trace should be exhausted")
	}
}

func TestTraceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTrace([]float64{0}, []float64{1, 2})
}

func TestModulatedSourcePhaseSizes(t *testing.T) {
	// Burst jobs drawn from a point mass at 1, base jobs at 100:
	// every job's size reveals its phase.
	src := &ModulatedSource{
		Arrivals:   NewMMPP2(50, 0.5, 0.2, 0.2),
		BurstSizes: dist.Deterministic{Value: 1},
		BaseSizes:  dist.Deterministic{Value: 100},
		Limit:      50000,
	}
	r := rng(9)
	var burst, base int
	for {
		j, ok := src.Next(r)
		if !ok {
			break
		}
		switch j.Size {
		case 1:
			burst++
		case 100:
			base++
		default:
			t.Fatalf("unexpected size %v", j.Size)
		}
	}
	if burst+base != 50000 {
		t.Fatalf("total %d", burst+base)
	}
	// The burst phase carries ~99% of arrivals (50 vs 0.5 at equal
	// occupancy).
	frac := float64(burst) / 50000
	if frac < 0.95 {
		t.Fatalf("burst fraction %v implausibly low", frac)
	}
}

func TestMMPP2InBurstTracksPhase(t *testing.T) {
	m := NewMMPP2(1000, 0.001, 1, 1)
	r := rng(4)
	// With rate1 >> rate2 almost every arrival lands in the burst phase.
	inBurst := 0
	for i := 0; i < 2000; i++ {
		m.NextInterarrival(r)
		if m.InBurst() {
			inBurst++
		}
	}
	if float64(inBurst)/2000 < 0.95 {
		t.Fatalf("burst-phase fraction %v too low", float64(inBurst)/2000)
	}
}

func TestLoadTraceCSV(t *testing.T) {
	src := "arrival,size\n0,4\n0,5\n1.5,2\n"
	tr, err := LoadTraceCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 3 || tr.Jobs[2].Arrival != 1.5 || tr.Jobs[1].Size != 5 {
		t.Fatalf("trace %+v", tr.Jobs)
	}
}

func TestLoadTraceCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"negative size":  "0,4\n1,-2\n",
		"decreasing":     "5,1\n1,1\n",
		"bad number mid": "0,1\nx,y\n",
	}
	for name, src := range cases {
		if _, err := LoadTraceCSV(strings.NewReader(src)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}
