package conform

import (
	"errors"
	"fmt"
	"math"

	"pepatags/internal/approx"
	"pepatags/internal/core"
	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
	"pepatags/internal/linalg"
	"pepatags/internal/pepa"
	"pepatags/internal/policies"
	"pepatags/internal/queueing"
	"pepatags/internal/sim"
	"pepatags/internal/stats"
	"pepatags/internal/workload"
)

// Oracle names. Each is one independently checkable agreement between
// two routes to the same quantity; violation details always name both
// sides and the achieved difference.
const (
	OracleStateCount     = "pepa-vs-direct/state-count"
	OracleIsomorphism    = "pepa-vs-direct/isomorphism"
	OracleSteadyState    = "pepa-vs-direct/steady-state"
	OracleThroughput     = "pepa-vs-direct/throughput"
	OracleSolverPairwise = "solver/pairwise"
	OracleSolverConverge = "solver/converge"
	OracleTransientFixed = "transient/fixed-point"
	OracleTransientMono  = "transient/tv-monotone"
	OracleTransientLimit = "transient/limit"
	OracleConservation   = "conservation/flow"
	OracleApproxBound    = "approx/error-bound"
	OracleSimCI          = "sim/confidence-interval"
	OracleClosedForm     = "closed-form/decomposition"
	OracleDeriveParallel = "derive/parallel-vs-serial"
	OracleRoundTrip      = "derive/print-parse-roundtrip"
	OracleStationarity   = "solver/stationarity"
	OracleAdmissionSS    = "admission/closed-form-vs-chain"
	OracleAdmissionFlow  = "admission/flow-balance"
	OracleHetJSQPolicies = "hetjsq/jsq-vs-pod2"
	OraclePanic          = "panic"
)

// Numerical tolerances, chosen from how each pair of backends is
// computed. The PEPA and direct chains are solved by the same GTH
// elimination, so only state-ordering round-off separates them (1e-10).
// Iterative solvers stop on a 1e-13 successive-iterate difference,
// which bounds the solution error only up to the (unknown) contraction
// factor; 1e-7 leaves that margin while still catching any real rate
// discrepancy. The approximation bounds are empirical ceilings over the
// generated regime, far below what a perturbed backend produces but
// far above honest decomposition error.
const (
	tolSteadyState = 1e-10
	tolThroughput  = 1e-8
	tolSolver      = 1e-7
	tolTransient   = 1e-7
	tolConserve    = 1e-8
	// Simulator CI: a 99.9% Student-t interval over the replications,
	// widened by a relative floor so a zero-variance degenerate run
	// cannot produce a spurious violation. Eight replications, not
	// four: with df = 3 the sample standard error occasionally
	// collapses far below its true value (chi-square with 3 dof has
	// real mass near zero), and no t multiplier can widen an interval
	// whose width estimate is itself near zero — observed as a
	// spurious loss-probability violation on a correct chain. df = 7
	// makes that collapse vanishingly rare.
	simReps      = 8
	simJobs      = 25000
	simTMult     = 4.785 // two-sided 99.9% t quantile, 7 degrees of freedom
	simRelFloor  = 0.01
	approxBoundX = 0.30 // max relative error of decomposition throughput
	approxBoundL = 1.50 // max relative error of decomposition mean population
)

// Backend injection hooks: Checker.Inject deliberately perturbs one
// backend so the harness can demonstrate, end to end, that a real
// disagreement is detected, shrunk and written out as a repro.
const (
	// InjectDirectRate multiplies the direct builder's service rate by
	// (1 + 1e-6), leaving the PEPA model untouched: the steady-state
	// oracle must catch the discrepancy.
	InjectDirectRate = "direct-rate"
	// InjectSimLoss drops one in every 20 completed jobs from the
	// simulator's accounting, which the confidence-interval oracle must
	// catch.
	InjectSimLoss = "sim-loss"
)

// Violation is one oracle failure.
type Violation struct {
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

// result accumulates a scenario's oracle outcomes.
type result struct {
	checks     map[string]int
	violations []Violation
}

func newResult() *result { return &result{checks: make(map[string]int)} }

func (r *result) ran(oracle string) { r.checks[oracle]++ }

func (r *result) failf(oracle, format string, args ...any) {
	r.violations = append(r.violations, Violation{Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
}

// Checker runs the oracle battery over scenarios.
type Checker struct {
	// Inject perturbs one backend (see the Inject constants); empty
	// means honest comparison.
	Inject string
}

// Check runs every oracle applicable to the scenario's kind. It never
// panics: a panic in any backend is itself reported as a violation.
func (ck Checker) Check(sc Scenario) (res *result) {
	res = newResult()
	defer func() {
		if p := recover(); p != nil {
			res.failf(OraclePanic, "backend panicked on %s: %v", sc, p)
		}
	}()
	switch sc.Kind {
	case KindTAGExp:
		ck.checkTAGExp(sc, res)
	case KindRandom:
		ck.checkRandom(sc, res)
	case KindJSQ:
		ck.checkJSQ(sc, res)
	case KindPEPA:
		ck.checkPEPA(sc, res)
	case KindAdmission:
		ck.checkAdmission(sc, res)
	case KindHetJSQ:
		ck.checkHetJSQ(sc, res)
	default:
		res.failf(OraclePanic, "unknown scenario kind %q", sc.Kind)
	}
	return res
}

// Violations returns the accumulated oracle failures.
func (r *result) Violations() []Violation { return r.violations }

// linfDiff is the l-infinity distance of two equal-length vectors.
func linfDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// tvDist is the total-variation distance of two distributions.
func tvDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s / 2
}

// ---------------------------------------------------------------
// TAG (Figure 3) scenarios: PEPA vs direct vs solvers vs transient
// vs the Section 4 decomposition.

func (ck Checker) checkTAGExp(sc Scenario, res *result) {
	m := core.NewTAGExp(sc.Lambda, sc.Mu, sc.T, sc.N, sc.K1, sc.K2)
	mDirect := m
	if ck.Inject == InjectDirectRate {
		mDirect.Mu *= 1 + 1e-6
	}
	direct := mDirect.Build()

	// PEPA route: parse the generated source, derive, compare.
	pm, err := pepa.Parse(m.PEPASource())
	if err != nil {
		res.failf(OracleStateCount, "PEPA source does not parse: %v", err)
		return
	}
	ss, err := pepa.Derive(pm, pepa.DeriveOptions{})
	if err != nil {
		res.failf(OracleStateCount, "PEPA derivation failed: %v", err)
		return
	}
	res.ran(OracleStateCount)
	if ss.Chain.NumStates() != direct.NumStates() {
		res.failf(OracleStateCount, "PEPA %d states, direct %d", ss.Chain.NumStates(), direct.NumStates())
		return
	}
	res.ran(OracleIsomorphism)
	// The direct builder gives the timeout-into-a-full-queue event its
	// own loss_transfer label so the loss flow is measurable; in the
	// PEPA model the same event is the timeout action (the full queue
	// derivative absorbs it without growing).
	alias := map[string]string{core.ActLossTransfer: core.ActTimeout}
	mapping, err := Isomorphic(direct, ss.Chain, alias)
	if err != nil {
		res.failf(OracleIsomorphism, "chains not isomorphic: %v", err)
		return
	}

	piDirect, ok := steadyGTH(direct, res)
	piPEPA, ok2 := steadyGTH(ss.Chain, res)
	if ok && ok2 {
		res.ran(OracleSteadyState)
		var worst float64
		for i, j := range mapping {
			if d := math.Abs(piDirect[i] - piPEPA[j]); d > worst {
				worst = d
			}
		}
		if worst > tolSteadyState {
			res.failf(OracleSteadyState, "steady-state vectors differ by %.3g (tol %g)", worst, tolSteadyState)
		}

		// Per-action throughputs for actions both chains know. The
		// direct chain additionally records loss self-loops, which the
		// PEPA model legitimately omits.
		res.ran(OracleThroughput)
		pepaActs := make(map[string]bool)
		for _, a := range ss.Chain.Actions() {
			pepaActs[a] = true
		}
		for _, a := range direct.Actions() {
			if !pepaActs[a] {
				continue
			}
			xd := direct.ActionThroughput(piDirect, a)
			if a == core.ActTimeout {
				// The PEPA timeout action carries the transfer-loss
				// flow too (see the isomorphism alias above).
				xd += direct.ActionThroughput(piDirect, core.ActLossTransfer)
			}
			xp := ss.Chain.ActionThroughput(piPEPA, a)
			if d := math.Abs(xd - xp); d > tolThroughput*math.Max(1, math.Abs(xd)) {
				res.failf(OracleThroughput, "action %q throughput %g (direct) vs %g (pepa)", a, xd, xp)
			}
		}
	}

	solverBattery(direct, piDirect, res)
	transientOracles(direct, piDirect, res)

	// Conservation: everything offered either completes or is lost, and
	// node 2 is fed exactly by the timeout flow.
	r, err := mDirect.AnalyzeChain(direct)
	if err == nil {
		res.ran(OracleConservation)
		if d := math.Abs(r.Throughput + r.Loss - mDirect.Lambda); d > tolConserve*mDirect.Lambda {
			res.failf(OracleConservation, "throughput %g + loss %g != lambda %g (diff %.3g)",
				r.Throughput, r.Loss, mDirect.Lambda, d)
		}
		if d := math.Abs(r.X2 - r.TimeoutRate); d > tolConserve*math.Max(1, r.TimeoutRate) {
			res.failf(OracleConservation, "node-2 flow: X2 %g != timeout rate %g", r.X2, r.TimeoutRate)
		}

		// Decomposition approximation inside its recorded error bounds.
		res.ran(OracleApproxBound)
		a := approx.TwoStage{Lambda: sc.Lambda, Mu: sc.Mu, T: sc.T, N: sc.N, K1: sc.K1, K2: sc.K2}.Evaluate()
		if rel := math.Abs(a.X-r.Throughput) / r.Throughput; rel > approxBoundX {
			res.failf(OracleApproxBound, "approx throughput %g vs exact %g: rel error %.3g > %g",
				a.X, r.Throughput, rel, approxBoundX)
		}
		if rel := math.Abs(a.L-r.L) / math.Max(r.L, 0.1); rel > approxBoundL {
			res.failf(OracleApproxBound, "approx L %g vs exact %g: rel error %.3g > %g",
				a.L, r.L, rel, approxBoundL)
		}
	}
}

// steadyGTH solves the chain with the exact dense reference solver.
func steadyGTH(c *ctmc.Chain, res *result) ([]float64, bool) {
	pi, err := linalg.SteadyStateGTH(c.Generator().ToDense())
	if err != nil {
		res.failf(OracleSolverConverge, "GTH failed on %d-state chain: %v", c.NumStates(), err)
		return nil, false
	}
	return pi, true
}

// solverBattery solves the chain with every stationary solver and
// checks pairwise agreement against the GTH reference.
func solverBattery(c *ctmc.Chain, piRef []float64, res *result) {
	if piRef == nil {
		return
	}
	q := c.Generator()
	dense := q.ToDense()
	iter := linalg.Options{Eps: 1e-13}
	sor := linalg.Options{Eps: 1e-13, Omega: 0.9}
	solvers := []struct {
		name  string
		solve func() ([]float64, error)
	}{
		{"lu", func() ([]float64, error) { return linalg.SteadyStateLU(dense) }},
		{"power", func() ([]float64, error) { return linalg.SteadyStatePower(q, iter) }},
		{"jacobi", func() ([]float64, error) { return linalg.SteadyStateJacobi(q, iter) }},
		{"gauss-seidel", func() ([]float64, error) { return linalg.SteadyStateGaussSeidel(q, iter) }},
		{"sor-0.9", func() ([]float64, error) { return linalg.SteadyStateGaussSeidel(q, sor) }},
		{"bicgstab", func() ([]float64, error) { return linalg.SteadyStateBiCGSTAB(q, linalg.Options{}) }},
		{"auto", func() ([]float64, error) { return linalg.SteadyState(c.Generator(), linalg.Options{Eps: 1e-13}) }},
	}
	for _, s := range solvers {
		res.ran(OracleSolverPairwise)
		pi, err := s.solve()
		if err != nil {
			if errors.Is(err, linalg.ErrNotConverged) {
				res.failf(OracleSolverConverge, "%s did not converge on %d-state chain: %v", s.name, c.NumStates(), err)
			} else {
				res.failf(OracleSolverConverge, "%s failed on %d-state chain: %v", s.name, c.NumStates(), err)
			}
			continue
		}
		if d := linfDiff(pi, piRef); d > tolSolver {
			res.failf(OracleSolverPairwise, "%s vs GTH: l-inf %.3g (tol %g)", s.name, d, tolSolver)
		}
	}
	// Direct residual check: the reference really is stationary.
	res.ran(OracleStationarity)
	if r := linalg.Residual(q, piRef); r > 1e-8 {
		res.failf(OracleStationarity, "GTH residual |pi Q| = %.3g", r)
	}
}

// transientOracles checks the uniformised transient solver against the
// stationary solution three ways: the stationary vector is a fixed
// point of the evolution; total-variation distance to stationarity
// never increases with t; and, when the empirical mixing rate makes it
// affordable, the distribution at large t actually reaches pi.
func transientOracles(c *ctmc.Chain, pi []float64, res *result) {
	if pi == nil {
		return
	}
	res.ran(OracleTransientFixed)
	pt, err := c.Transient(pi, 1.5, 1e-12)
	if err != nil {
		res.failf(OracleTransientFixed, "transient from pi failed: %v", err)
		return
	}
	if d := linfDiff(pt, pi); d > tolTransient {
		res.failf(OracleTransientFixed, "pi is not a fixed point: moved %.3g at t=1.5 (tol %g)", d, tolTransient)
	}

	pi0 := c.PointMass(0)
	dist := func(t float64) (float64, error) {
		p, err := c.Transient(pi0, t, 1e-12)
		if err != nil {
			return 0, err
		}
		return tvDist(p, pi), nil
	}
	res.ran(OracleTransientMono)
	d4, err4 := dist(4)
	d8, err8 := dist(8)
	if err4 != nil || err8 != nil {
		res.failf(OracleTransientMono, "transient from point mass failed: %v / %v", err4, err8)
		return
	}
	if d8 > d4+1e-9 {
		res.failf(OracleTransientMono, "TV distance to pi increased: d(4)=%.3g d(8)=%.3g", d4, d8)
	}

	// Large-t limit. Estimate the mixing rate from the decay between
	// t=4 and t=8 and only evaluate the limit when it is reachable at
	// modest uniformisation cost; slowly mixing chains are covered by
	// the two exact oracles above.
	if d8 <= 1e-8 {
		res.ran(OracleTransientLimit)
		return // already stationary
	}
	gap := math.Log(d4/d8) / 4
	if gap <= 0 {
		return
	}
	tNeed := 8 + math.Log(d8/1e-9)/gap
	if tNeed > 300 {
		return // not affordable; skip rather than guess
	}
	res.ran(OracleTransientLimit)
	dLim, err := dist(tNeed)
	if err != nil {
		res.failf(OracleTransientLimit, "transient at t=%.1f failed: %v", tNeed, err)
		return
	}
	if dLim > 1e-6 {
		res.failf(OracleTransientLimit, "TV distance %.3g to pi at t=%.1f (predicted < 1e-9)", dLim, tNeed)
	}
}

// ---------------------------------------------------------------
// Random allocation: M/PH/1/K decomposition vs M/M/1/K closed forms
// vs the simulator.

func (ck Checker) checkRandom(sc Scenario, res *result) {
	service, err := sc.Service.Dist()
	if err != nil {
		res.failf(OraclePanic, "bad service spec: %v", err)
		return
	}
	model := core.NewRandomTwoNode(sc.Lambda, service, sc.K)
	r, err := model.Analyze()
	if err != nil {
		res.failf(OracleClosedForm, "random-allocation analysis failed: %v", err)
		return
	}

	res.ran(OracleConservation)
	if d := math.Abs(r.Throughput + r.Loss - sc.Lambda); d > tolConserve*sc.Lambda {
		res.failf(OracleConservation, "throughput %g + loss %g != lambda %g", r.Throughput, r.Loss, sc.Lambda)
	}

	// Exponential service: the decomposed M/PH/1/K solve must match the
	// M/M/1/K closed form exactly.
	if sc.Service.Kind == "exp" {
		res.ran(OracleClosedForm)
		want := queueing.NewMM1K(sc.Lambda/2, sc.Service.Mu, sc.K)
		if d := math.Abs(r.L - 2*want.MeanQueueLength()); d > 1e-9*math.Max(1, r.L) {
			res.failf(OracleClosedForm, "L %g vs closed form %g", r.L, 2*want.MeanQueueLength())
		}
		if d := math.Abs(r.Throughput - 2*want.Throughput()); d > 1e-9*math.Max(1, r.Throughput) {
			res.failf(OracleClosedForm, "throughput %g vs closed form %g", r.Throughput, 2*want.Throughput())
		}
	}

	ck.simOracle(res, sc, policies.NewUniformRandom(2),
		[]sim.NodeConfig{{Capacity: sc.K}, {Capacity: sc.K}}, service, r)
}

// ---------------------------------------------------------------
// Shortest queue: direct CTMC vs solvers vs the simulator.

func (ck Checker) checkJSQ(sc Scenario, res *result) {
	service, err := sc.Service.Dist()
	if err != nil {
		res.failf(OraclePanic, "bad service spec: %v", err)
		return
	}
	model := core.NewShortestQueue(sc.Lambda, service, sc.K)
	chain := model.Build()
	r, err := model.Analyze()
	if err != nil {
		res.failf(OracleClosedForm, "shortest-queue analysis failed: %v", err)
		return
	}

	res.ran(OracleConservation)
	if d := math.Abs(r.Throughput + r.Loss - sc.Lambda); d > tolConserve*sc.Lambda {
		res.failf(OracleConservation, "throughput %g + loss %g != lambda %g", r.Throughput, r.Loss, sc.Lambda)
	}

	pi, ok := steadyGTH(chain, res)
	if ok {
		solverBattery(chain, pi, res)
		transientOracles(chain, pi, res)
	}

	ck.simOracle(res, sc, policies.ShortestQueue{},
		[]sim.NodeConfig{{Capacity: sc.K}, {Capacity: sc.K}}, service, r)
}

// simOracle runs independent simulator replications and requires the
// analytic throughput, loss probability and mean response to fall
// inside the replication confidence interval (99.9% Student-t, plus a
// small relative floor against zero-variance degeneracy).
func (ck Checker) simOracle(res *result, sc Scenario, pol sim.Policy, nodes []sim.NodeConfig, service dist.Distribution, r core.Measures) {
	var xs, losses, ws stats.Summary
	for rep := 0; rep < simReps; rep++ {
		cfg := sim.Config{
			Nodes:  nodes,
			Policy: pol,
			Source: &workload.StochasticSource{
				Arrivals: workload.NewPoisson(sc.Lambda),
				Sizes:    service,
				Limit:    simJobs,
			},
			Seed:   sc.SimSeed + uint64(rep)*0x9e3779b97f4a7c15,
			Warmup: 0.02 * float64(simJobs) / sc.Lambda,
		}
		m := sim.NewSystem(cfg).Run(0)
		completed := m.Completed
		if ck.Inject == InjectSimLoss {
			completed -= completed / 20
		}
		t := m.Elapsed - m.Warmup
		xs.Add(float64(completed) / t)
		total := completed + m.Dropped + m.Killed
		losses.Add(float64(m.Dropped+m.Killed) / float64(total))
		ws.Add(m.Response.Mean())
	}
	ciCheck := func(name string, analytic float64, s *stats.Summary) {
		res.ran(OracleSimCI)
		slack := simTMult*s.StdErr() + simRelFloor*math.Max(math.Abs(analytic), 0.01)
		if d := math.Abs(analytic - s.Mean()); d > slack {
			res.failf(OracleSimCI, "%s: analytic %g outside sim CI %g +/- %g (%d reps x %d jobs)",
				name, analytic, s.Mean(), slack, simReps, simJobs)
		}
	}
	ciCheck("throughput", r.Throughput, &xs)
	ciCheck("loss-probability", r.Loss/sc.Lambda, &losses)
	ciCheck("mean-response", r.W, &ws)
}

// ---------------------------------------------------------------
// Random PEPA models: serial vs parallel derivation, print/parse
// round trip, and the solver battery on the derived chain.

func (ck Checker) checkPEPA(sc Scenario, res *result) {
	m, err := pepa.Parse(sc.PEPA)
	if err != nil {
		res.failf(OracleRoundTrip, "generated model does not parse: %v", err)
		return
	}
	serial, err := pepa.Derive(m, pepa.DeriveOptions{})
	if err != nil {
		res.failf(OracleDeriveParallel, "serial derivation failed: %v", err)
		return
	}
	res.ran(OracleDeriveParallel)
	par, err := pepa.Derive(m, pepa.DeriveOptions{Workers: 4})
	if err != nil {
		res.failf(OracleDeriveParallel, "parallel derivation failed: %v", err)
		return
	}
	if msg := chainsIdentical(serial.Chain, par.Chain); msg != "" {
		res.failf(OracleDeriveParallel, "parallel chain differs from serial: %s", msg)
	}

	// Print -> parse -> derive must reproduce the identical chain:
	// derivation order is deterministic in the AST, and the printer
	// must preserve the AST's meaning.
	res.ran(OracleRoundTrip)
	m2, err := pepa.Parse(m.Source())
	if err != nil {
		res.failf(OracleRoundTrip, "printed model does not re-parse: %v", err)
		return
	}
	rt, err := pepa.Derive(m2, pepa.DeriveOptions{})
	if err != nil {
		res.failf(OracleRoundTrip, "re-derivation failed: %v", err)
		return
	}
	if msg := chainsIdentical(serial.Chain, rt.Chain); msg != "" {
		res.failf(OracleRoundTrip, "round-tripped chain differs: %s", msg)
	}

	if err := serial.Chain.CheckIrreducible(); err != nil {
		// Generated models are cyclic with an always-enabled shared
		// action, so the chain must be irreducible.
		res.failf(OracleStationarity, "derived chain reducible: %v", err)
		return
	}
	pi, ok := steadyGTH(serial.Chain, res)
	if ok {
		solverBattery(serial.Chain, pi, res)
	}
}

// chainsIdentical compares two chains for bit-identical equality:
// same state labels in the same order and the same transition list.
// An empty string means identical.
func chainsIdentical(a, b *ctmc.Chain) string {
	if a.NumStates() != b.NumStates() {
		return fmt.Sprintf("%d vs %d states", a.NumStates(), b.NumStates())
	}
	for i := 0; i < a.NumStates(); i++ {
		if a.Label(i) != b.Label(i) {
			return fmt.Sprintf("state %d labelled %q vs %q", i, a.Label(i), b.Label(i))
		}
	}
	ta, tb := a.Transitions(), b.Transitions()
	if len(ta) != len(tb) {
		return fmt.Sprintf("%d vs %d transitions", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			return fmt.Sprintf("transition %d: %+v vs %+v", i, ta[i], tb[i])
		}
	}
	return ""
}

// ---------------------------------------------------------------
// Admission scenarios: the pepad overload policy as a model
// (policies.AdmissionQueue). The closed-form birth-death solution is
// checked against a general-purpose steady-state solve of the
// explicitly built CTMC, and the accepted/rejected flows against the
// arrival rate.

func (ck Checker) checkAdmission(sc Scenario, res *result) {
	a := policies.AdmissionQueue{Lambda: sc.Lambda, Mu: sc.Mu, Servers: sc.Servers, Queue: sc.Queue}
	m, err := a.Measures()
	if err != nil {
		res.failf(OracleAdmissionSS, "closed form rejected parameters: %v", err)
		return
	}
	ch, err := a.BuildChain()
	if err != nil {
		res.failf(OracleAdmissionSS, "chain build rejected parameters: %v", err)
		return
	}
	pi, ok := steadyGTH(ch, res)
	if !ok {
		return
	}
	res.ran(OracleAdmissionSS)
	x := ch.ActionThroughput(pi, "service")
	rej := ch.ActionThroughput(pi, "reject")
	l := ch.Expectation(pi, func(s int) float64 { return float64(s) })
	if d := relDiff(x, m.Throughput); d > tolThroughput {
		res.failf(OracleAdmissionSS, "throughput: chain %g vs closed form %g (rel %g)", x, m.Throughput, d)
	}
	if d := relDiff(rej, m.RejectRate); d > tolThroughput {
		res.failf(OracleAdmissionSS, "reject rate: chain %g vs closed form %g (rel %g)", rej, m.RejectRate, d)
	}
	if d := relDiff(l, m.MeanJobs); d > tolThroughput {
		res.failf(OracleAdmissionSS, "mean jobs: chain %g vs closed form %g (rel %g)", l, m.MeanJobs, d)
	}

	// Every arrival is either admitted (and eventually served) or
	// rejected: the two stationary flows must sum to lambda on both
	// routes to the model.
	res.ran(OracleAdmissionFlow)
	if d := relDiff(m.Throughput+m.RejectRate, sc.Lambda); d > tolConserve {
		res.failf(OracleAdmissionFlow, "closed form: throughput %g + reject %g != lambda %g", m.Throughput, m.RejectRate, sc.Lambda)
	}
	if d := relDiff(x+rej, sc.Lambda); d > tolConserve {
		res.failf(OracleAdmissionFlow, "chain: throughput %g + reject %g != lambda %g", x, rej, sc.Lambda)
	}
}

// ---------------------------------------------------------------
// Heterogeneous N=2 cluster under join-the-shortest-queue. No module
// in the repo models this analytically, so the oracle builds the CTMC
// directly over occupancy pairs (n1, n2): arrivals join the shorter
// queue (ties split evenly, the simulator's uniform tie-break in
// expectation), each node serves exponentially at its own speed, and
// an arrival finding both queues full is lost on a labelled self-loop.
// The simulator is then checked against the chain under both JSQ and
// power-of-2 routing — with two nodes, sampling d=2 distinct nodes is
// sampling all of them, so both policies must match the same chain
// (Mukhopadhyay et al.'s heterogeneous power-of-d at its smallest
// instance).

// hetJSQChain builds the occupancy CTMC for the two-node cluster.
// Node 1 serves at rate mu, node 2 at speed2*mu; each holds up to k
// jobs.
func hetJSQChain(lambda, mu, speed2 float64, k int) *ctmc.Chain {
	b := ctmc.NewBuilder()
	id := func(n1, n2 int) int { return b.State(fmt.Sprintf("(%d,%d)", n1, n2)) }
	for n1 := 0; n1 <= k; n1++ {
		for n2 := 0; n2 <= k; n2++ {
			s := id(n1, n2)
			switch {
			case n1 < n2:
				b.Transition(s, id(n1+1, n2), lambda, "arrive")
			case n2 < n1:
				b.Transition(s, id(n1, n2+1), lambda, "arrive")
			case n1 < k: // tie below capacity: uniform tie-break
				b.Transition(s, id(n1+1, n2), lambda/2, "arrive")
				b.Transition(s, id(n1, n2+1), lambda/2, "arrive")
			default: // both full: the arrival is lost
				b.Transition(s, s, lambda, "loss")
			}
			if n1 > 0 {
				b.Transition(s, id(n1-1, n2), mu, "service")
			}
			if n2 > 0 {
				b.Transition(s, id(n1, n2-1), speed2*mu, "service")
			}
		}
	}
	return b.Build()
}

func (ck Checker) checkHetJSQ(sc Scenario, res *result) {
	chain := hetJSQChain(sc.Lambda, sc.Mu, sc.Speed2, sc.K)
	pi, ok := steadyGTH(chain, res)
	if !ok {
		return
	}
	solverBattery(chain, pi, res)

	x := chain.ActionThroughput(pi, "service")
	loss := chain.ActionThroughput(pi, "loss")
	l := chain.Expectation(pi, func(s int) float64 {
		var n1, n2 int
		fmt.Sscanf(chain.Label(s), "(%d,%d)", &n1, &n2)
		return float64(n1 + n2)
	})

	res.ran(OracleConservation)
	if d := math.Abs(x + loss - sc.Lambda); d > tolConserve*sc.Lambda {
		res.failf(OracleConservation, "hetjsq: throughput %g + loss %g != lambda %g", x, loss, sc.Lambda)
	}

	// Little's law on the admitted stream gives the mean response.
	r := core.Measures{Throughput: x, Loss: loss, W: l / x}
	service := dist.NewExponential(sc.Mu)
	nodes := []sim.NodeConfig{
		{Capacity: sc.K, Speed: 1},
		{Capacity: sc.K, Speed: sc.Speed2},
	}
	res.ran(OracleHetJSQPolicies)
	for _, pol := range []sim.Policy{policies.ShortestQueue{}, policies.NewPowerOfD(2)} {
		ck.simOracle(res, sc, pol, nodes, service, r)
	}
}

// relDiff is the relative difference |a-b| / max(1, |b|).
func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Abs(b))
}
