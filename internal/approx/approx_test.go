package approx

import (
	"math"
	"testing"

	"pepatags/internal/core"
	"pepatags/internal/dist"
	"pepatags/internal/numeric"
)

func TestExponentialBalanceTimeout(t *testing.T) {
	// mu = 10: the paper predicts "approximately 6.17".
	got := ExponentialBalanceTimeout(10)
	if !numeric.AlmostEqual(got, 6.18034, 1e-4) {
		t.Fatalf("T = %v want ~6.18", got)
	}
	// Verify it satisfies mu^2 = T^2 + T mu.
	if !numeric.AlmostEqual(100, got*got+got*10, 1e-9) {
		t.Fatal("balance equation violated")
	}
}

func TestErlangRaceBalanceN1MatchesExponential(t *testing.T) {
	// n = 1 must reduce to the exponential balance.
	got, err := ErlangRaceBalanceRate(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(got, ExponentialBalanceTimeout(10), 1e-6) {
		t.Fatalf("n=1 rate %v want %v", got, ExponentialBalanceTimeout(10))
	}
}

func TestErlangRaceEffectiveRateIncreasesTowardsDeterministic(t *testing.T) {
	// The paper: the effective rate rises with n "tending to a value of
	// around 9 when mu = 10".
	mu := 10.0
	limit := DeterministicBalanceRate(mu)
	if !(limit > 8.5 && limit < 9.0) {
		t.Fatalf("deterministic limit %v want ~8.7", limit)
	}
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		tr, err := ErlangRaceBalanceRate(mu, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		eff := tr / float64(n)
		if eff < prev-1e-9 {
			t.Fatalf("effective rate not increasing at n=%d: %v -> %v", n, prev, eff)
		}
		prev = eff
	}
	if math.Abs(prev-limit) > 0.05 {
		t.Fatalf("large-n effective rate %v does not approach %v", prev, limit)
	}
}

func TestTwoStageSanityAgainstExactModel(t *testing.T) {
	// The decomposition should land in the right ballpark (within ~35%)
	// of the exact CTMC at the paper's operating point.
	a := TwoStage{Lambda: 5, Mu: 10, T: 51, N: 6, K1: 10, K2: 10}
	r := a.Evaluate()
	exact, err := core.NewTAGExp(5, 10, 51, 6, 10, 10).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if r.L <= 0 || r.W <= 0 {
		t.Fatalf("degenerate approximation %+v", r)
	}
	if rel := math.Abs(r.L-exact.L) / exact.L; rel > 0.35 {
		t.Fatalf("L approx %v exact %v rel %v", r.L, exact.L, rel)
	}
	if rel := math.Abs(r.X-exact.Throughput) / exact.Throughput; rel > 0.1 {
		t.Fatalf("X approx %v exact %v rel %v", r.X, exact.Throughput, rel)
	}
}

func TestTwoStageTimeoutProbabilityLimits(t *testing.T) {
	slow := TwoStage{Lambda: 5, Mu: 10, T: 0.01, N: 6, K1: 10, K2: 10}.Evaluate()
	if slow.PTimeout > 1e-10 {
		t.Fatalf("slow timer should never fire: %v", slow.PTimeout)
	}
	fast := TwoStage{Lambda: 5, Mu: 10, T: 1e6, N: 6, K1: 10, K2: 10}.Evaluate()
	if fast.PTimeout < 0.999 {
		t.Fatalf("fast timer should always fire: %v", fast.PTimeout)
	}
}

func TestTwoStageOptimalRateInterior(t *testing.T) {
	// At high load (lambda = 11 > mu) the decomposition exhibits the
	// interior optimum that makes TAG worth tuning; at light load the
	// approximation is monotone (TAG only helps under contention).
	a := TwoStage{Lambda: 11, Mu: 10, N: 6, K1: 10, K2: 10}
	tr, res := a.OptimalRate(MinQueueLength, 1, 400)
	if tr <= 1.5 || tr >= 399 {
		t.Fatalf("optimal rate %v should be interior", tr)
	}
	if res.L <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	// The Section 4 balance argument predicts an effective rate near
	// 8.7 (t ~ 52 for n = 6); the bounded-queue optimum sits somewhat
	// below it.
	eff := tr / 6
	if eff < 2 || eff > 18 {
		t.Fatalf("optimal effective rate %v implausible", eff)
	}
	// Throughput is also maximised at an interior rate.
	trX, _ := a.OptimalRate(MaxThroughput, 1, 400)
	if trX <= 1.5 || trX >= 399 {
		t.Fatalf("optimal throughput rate %v should be interior", trX)
	}
}

func TestTwoStageH2DegeneratesToExp(t *testing.T) {
	h := dist.NewH2(1, 10, 5)
	ah := TwoStageH2{Lambda: 5, Service: h, T: 51, N: 6, K1: 10, K2: 10}.Evaluate()
	ae := TwoStage{Lambda: 5, Mu: 10, T: 51, N: 6, K1: 10, K2: 10}.Evaluate()
	if !numeric.AlmostEqual(ah.L, ae.L, 1e-9) || !numeric.AlmostEqual(ah.W, ae.W, 1e-9) {
		t.Fatalf("H2 degenerate %+v vs exp %+v", ah, ae)
	}
}

func TestTwoStageH2OptimalRateShorterTimeouts(t *testing.T) {
	// With extreme H2 demand the optimal timeout is longer in duration
	// (smaller effective rate) than exponential: short jobs must finish
	// at node 1 (paper's Figure 9 discussion).
	h := dist.H2ForTAG(0.1, 0.99, 100)
	a := TwoStageH2{Lambda: 11, Service: h, N: 6, K1: 10, K2: 10}
	trH2, _ := a.OptimalRate(MinResponseTime, 0.5, 400)
	e := TwoStage{Lambda: 11, Mu: 10, N: 6, K1: 10, K2: 10}
	trExp, _ := e.OptimalRate(MinResponseTime, 0.5, 400)
	if trH2 >= trExp {
		t.Fatalf("H2 optimal rate %v should be below exponential %v", trH2, trExp)
	}
}

func TestOptimalIntegerTExpMatchesPaperFigure8(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps many 4331-state models")
	}
	// Paper: optimal integer t (min queue length) = 51, 49, 45, 42 for
	// lambda = 5, 7, 9, 11. Allow ±3 slack for convention differences.
	want := map[float64]int{5: 51, 7: 49, 9: 45, 11: 42}
	for lambda, wt := range want {
		got, _, err := OptimalIntegerTExp(lambda, 10, 6, 10, 10, MinQueueLength, 30, 65)
		if err != nil {
			t.Fatalf("lambda=%v: %v", lambda, err)
		}
		if got < wt-3 || got > wt+3 {
			t.Errorf("lambda=%v: optimal t = %d, paper %d", lambda, got, wt)
		}
	}
}

func TestMetricString(t *testing.T) {
	if MinQueueLength.String() == "" || MaxThroughput.String() == "" || Metric(99).String() == "" {
		t.Fatal("empty metric names")
	}
}

func TestSensitivityExpNearOptimumIsFlat(t *testing.T) {
	// At the W-optimal t the W-elasticity should be near zero, and it
	// should be clearly non-zero away from the optimum.
	opt, _, err := OptimalIntegerTExp(11, 10, 6, 10, 10, MinResponseTime, 20, 70)
	if err != nil {
		t.Fatal(err)
	}
	sOpt, err := SensitivityExp(11, 10, float64(opt), 6, 10, 10, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	sOff, err := SensitivityExp(11, 10, float64(opt)*3, 6, 10, 10, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sOpt.W) >= math.Abs(sOff.W) {
		t.Fatalf("W elasticity at optimum %v should be flatter than off-optimum %v", sOpt.W, sOff.W)
	}
}

func TestSensitivityH2Signs(t *testing.T) {
	// Well above the H2 optimum, increasing t raises W (positive
	// elasticity) and lowers throughput.
	h := dist.H2ForTAG(0.1, 0.99, 100)
	s, err := SensitivityH2(11, h, 60, 6, 10, 10, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if s.W <= 0 {
		t.Fatalf("W elasticity %v should be positive above the optimum", s.W)
	}
	if s.Throughput >= 0 {
		t.Fatalf("throughput elasticity %v should be negative above the optimum", s.Throughput)
	}
}

func TestOptimalIntegerTH2CoarseMatchesExact(t *testing.T) {
	h := dist.H2ForTAG(0.2, 0.9, 10)
	lo, hi := 4, 24
	exact, _, err := OptimalIntegerT(H2Evaluator(7, h, 2, 4, 4), MinResponseTime, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	coarse, _, err := OptimalIntegerTH2Coarse(7, h, 2, 4, 4, MinResponseTime, lo, hi, 3)
	if err != nil {
		t.Fatal(err)
	}
	if exact != coarse {
		t.Fatalf("coarse %d vs exact %d", coarse, exact)
	}
	// Step 1 coarse is literally the exact sweep.
	s1, _, err := OptimalIntegerTH2Coarse(7, h, 2, 4, 4, MinResponseTime, lo, hi, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != exact {
		t.Fatalf("step-1 coarse %d vs exact %d", s1, exact)
	}
}

func TestOptimalIntegerTH2MaxThroughput(t *testing.T) {
	h := dist.H2ForTAG(0.2, 0.9, 10)
	best, m, err := OptimalIntegerT(H2Evaluator(9, h, 2, 4, 4), MaxThroughput, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	if best < 4 || best > 20 {
		t.Fatalf("optimal t %d out of range", best)
	}
	// The optimum beats the endpoints.
	lo, err := core.NewTAGH2(9, h, 4, 2, 4, 4).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if m.Throughput < lo.Throughput-1e-12 {
		t.Fatalf("optimum %v worse than endpoint %v", m.Throughput, lo.Throughput)
	}
}
