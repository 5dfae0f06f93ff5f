package exp

import (
	"strings"
	"testing"

	"pepatags/internal/obsv"
)

// The tests assert the qualitative shapes the paper reports; absolute
// numbers are recorded in EXPERIMENTS.md.

func TestFigure6Shapes(t *testing.T) {
	p := ShortParams()
	f, err := Figure6(p)
	if err != nil {
		t.Fatal(err)
	}
	tag, _ := seriesByName(f, "TAG-total")
	sq, _ := seriesByName(f, "shortest-queue")
	rnd, _ := seriesByName(f, "random")
	// Exponential service: SQ < random < TAG everywhere (the paper's
	// "TAG isn't very good" observation).
	for i := range tag.Y {
		if !(sq.Y[i] < rnd.Y[i] && rnd.Y[i] < tag.Y[i]) {
			t.Fatalf("ordering broken at x=%v: sq=%v rnd=%v tag=%v",
				tag.X[i], sq.Y[i], rnd.Y[i], tag.Y[i])
		}
	}
	// Node-1 queue falls and node-2 queue grows with the timeout rate.
	q1, _ := seriesByName(f, "TAG-queue1")
	q2, _ := seriesByName(f, "TAG-queue2")
	if !(q1.Y[len(q1.Y)-1] < q1.Y[0]) {
		t.Fatalf("queue1 should fall with timeout rate: %v", q1.Y)
	}
	if !(q2.Y[len(q2.Y)-1] > q2.Y[0]) {
		t.Fatalf("queue2 should grow with timeout rate: %v", q2.Y)
	}
}

func TestFigure7TAGHasInteriorMinimum(t *testing.T) {
	p := ShortParams()
	f, err := Figure7(p)
	if err != nil {
		t.Fatal(err)
	}
	tag, _ := seriesByName(f, "TAG")
	x, y := minY(tag)
	if x == tag.X[0] || x == tag.X[len(tag.X)-1] {
		t.Fatalf("TAG W minimum at boundary x=%v (y=%v)", x, y)
	}
}

func TestFigure8GapGrowsWithLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("full integer-t sweeps")
	}
	p := ShortParams()
	f, err := Figure8(p)
	if err != nil {
		t.Fatal(err)
	}
	tag, _ := seriesByName(f, "TAG-optimal-t")
	sq, _ := seriesByName(f, "shortest-queue")
	// TAG loses to SQ under exponential service, and the gap widens
	// with lambda (the paper's "particularly the case as load
	// increases").
	gapLow := tag.Y[0] - sq.Y[0]
	gapHigh := tag.Y[len(tag.Y)-1] - sq.Y[len(sq.Y)-1]
	if gapLow <= 0 || gapHigh <= gapLow {
		t.Fatalf("gap should be positive and widen: low %v high %v", gapLow, gapHigh)
	}
}

func TestFigure9TAGBeatsShortestQueue(t *testing.T) {
	p := ShortParams()
	f, err := Figure9(p)
	if err != nil {
		t.Fatal(err)
	}
	tag, _ := seriesByName(f, "TAG")
	sq, _ := seriesByName(f, "shortest-queue")
	// TAG must beat SQ over a range of rates, decisively at its optimum
	// (the wins concentrate at the low-rate end of the grid, where the
	// paper's Figure 9 lives).
	wins := 0
	for i := range tag.Y {
		if tag.Y[i] < sq.Y[i] {
			wins++
		}
	}
	if wins < 3 {
		t.Fatalf("TAG should beat SQ over a range: %d/%d wins", wins, len(tag.Y))
	}
	_, tagMin := minY(tag)
	if tagMin > 0.75*sq.Y[0] {
		t.Fatalf("TAG optimum %v not decisively below SQ %v", tagMin, sq.Y[0])
	}
	// Random allocation is much worse (noted, not plotted).
	if len(f.Notes) == 0 || !strings.Contains(f.Notes[0], "random") {
		t.Fatal("missing random-allocation note")
	}
}

func TestFigure10ThroughputShape(t *testing.T) {
	p := ShortParams()
	f, err := Figure10(p)
	if err != nil {
		t.Fatal(err)
	}
	tag, _ := seriesByName(f, "TAG")
	sq, _ := seriesByName(f, "shortest-queue")
	// Near the optimum TAG out-throughputs SQ...
	_, tagMax := maxY(tag)
	if tagMax <= sq.Y[0] {
		t.Fatalf("TAG max throughput %v should beat SQ %v", tagMax, sq.Y[0])
	}
	// ...but a badly tuned TAG (slowest rate on the grid) falls below.
	if tag.Y[0] >= sq.Y[0] {
		t.Fatalf("poorly tuned TAG %v should fall below SQ %v", tag.Y[0], sq.Y[0])
	}
}

func TestFigures11And12CrossTrends(t *testing.T) {
	if testing.Short() {
		t.Skip("H2 integer-t sweeps")
	}
	p := ShortParams()
	f11, err := Figure11(p)
	if err != nil {
		t.Fatal(err)
	}
	tag, _ := seriesByName(f11, "TAG-optimal-t")
	sq, _ := seriesByName(f11, "shortest-queue")
	rnd, _ := seriesByName(f11, "random")
	last := len(tag.Y) - 1
	// Paper: as alpha increases, TAG's W rises while random and SQ
	// improve.
	if !(tag.Y[last] > tag.Y[0]) {
		t.Fatalf("TAG W should rise with alpha: %v", tag.Y)
	}
	if !(sq.Y[last] < sq.Y[0]) || !(rnd.Y[last] < rnd.Y[0]) {
		t.Fatalf("baselines should improve with alpha: sq %v rnd %v", sq.Y, rnd.Y)
	}

	f12, err := Figure12(p)
	if err != nil {
		t.Fatal(err)
	}
	tagX, _ := seriesByName(f12, "TAG-optimal-t")
	sqX, _ := seriesByName(f12, "shortest-queue")
	if !(tagX.Y[last] < tagX.Y[0]) {
		t.Fatalf("TAG throughput should fall with alpha: %v", tagX.Y)
	}
	if !(sqX.Y[last] > sqX.Y[0]) {
		t.Fatalf("SQ throughput should rise with alpha: %v", sqX.Y)
	}
	// The paper's crossing trend: TAG's relative throughput advantage
	// over SQ shrinks as alpha grows (from roughly tied at 0.89 to
	// clearly behind at 0.99).
	ratioLow := tagX.Y[0] / sqX.Y[0]
	ratioHigh := tagX.Y[last] / sqX.Y[last]
	if !(ratioHigh < ratioLow) {
		t.Fatalf("TAG/SQ throughput ratio should fall with alpha: %v -> %v", ratioLow, ratioHigh)
	}
	if ratioLow < 0.99 {
		t.Fatalf("TAG should be at least competitive at alpha=0.89: ratio %v", ratioLow)
	}
}

func TestStateSpaceTable(t *testing.T) {
	p := DefaultParams()
	f, err := StateSpaceTable(p)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := seriesByName(f, "reachable-direct")
	engine, _ := seriesByName(f, "reachable-pepa-engine")
	bound, _ := seriesByName(f, "paper-product-bound")
	for i := range direct.Y {
		if direct.Y[i] != engine.Y[i] {
			t.Fatalf("direct %v != engine %v at n=%v", direct.Y[i], engine.Y[i], direct.X[i])
		}
		if direct.Y[i] > bound.Y[i] {
			t.Fatalf("reachable exceeds bound at n=%v", direct.X[i])
		}
	}
	// n=6 row is the paper's 4331.
	if direct.Y[len(direct.Y)-1] != 4331 {
		t.Fatalf("n=6 states %v want 4331", direct.Y[len(direct.Y)-1])
	}
}

func TestApproxTable(t *testing.T) {
	f, err := ApproxTable(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	eff, _ := seriesByName(f, "effective-rate-t/n")
	// Monotone increasing towards ~8.7.
	for i := 1; i < len(eff.Y); i++ {
		if eff.Y[i] < eff.Y[i-1]-1e-9 {
			t.Fatalf("effective rate not monotone: %v", eff.Y)
		}
	}
	last := eff.Y[len(eff.Y)-1]
	if last < 8 || last > 9 {
		t.Fatalf("large-n effective rate %v want ~8.7", last)
	}
}

func TestFluidTable(t *testing.T) {
	p := ShortParams()
	f, err := FluidTable(p)
	if err != nil {
		t.Fatal(err)
	}
	fl2, _ := seriesByName(f, "fluid-L2")
	ex2, _ := seriesByName(f, "ctmc-L2")
	// Both should grow with the timeout rate (same trend).
	n := len(fl2.Y)
	if !(fl2.Y[n-1] > fl2.Y[0]) || !(ex2.Y[n-1] > ex2.Y[0]) {
		t.Fatalf("L2 trends: fluid %v ctmc %v", fl2.Y, ex2.Y)
	}
}

func TestBurstyTable(t *testing.T) {
	f, err := BurstyTable(ShortParams(), 60000, 5)
	if err != nil {
		t.Fatal(err)
	}
	loss, _ := seriesByName(f, "loss-prob")
	// Scenario order: tag-poisson, tag-bursty, tag-adaptive-bursty,
	// sq-poisson, sq-bursty.
	tagPenalty := loss.Y[1] - loss.Y[0]
	sqPenalty := loss.Y[4] - loss.Y[3]
	if tagPenalty <= 0 {
		t.Fatalf("burstiness should hurt TAG: %v", loss.Y)
	}
	// The paper conjectures TAG suffers more from bursts than SQ.
	if tagPenalty < sqPenalty {
		t.Fatalf("TAG burst penalty %v should exceed SQ's %v", tagPenalty, sqPenalty)
	}
}

func TestSeriesMinMax(t *testing.T) {
	s := obsv.Series{X: []float64{1, 2, 3}, Y: []float64{5, 1, 9}}
	if x, y := minY(s); x != 2 || y != 1 {
		t.Fatalf("minY %v %v", x, y)
	}
	if x, y := maxY(s); x != 3 || y != 9 {
		t.Fatalf("maxY %v %v", x, y)
	}
	var empty obsv.Series
	if x, y := minY(empty); x != 0 || y != 0 {
		t.Fatal("empty minY")
	}
	if x, y := maxY(empty); x != 0 || y != 0 {
		t.Fatal("empty maxY")
	}
}

func TestSlowdownTableTAGWins(t *testing.T) {
	f, err := SlowdownTable(ShortParams(), 150000, 3)
	if err != nil {
		t.Fatal(err)
	}
	overall, _ := seriesByName(f, "mean-slowdown")
	small, _ := seriesByName(f, "slowdown-small")
	// Rows: 0 = tag, 1 = random, 2 = shortest queue.
	tag, rnd, sq := overall.Y[0], overall.Y[1], overall.Y[2]
	if !(tag < sq && sq < rnd) {
		t.Fatalf("mean slowdown ordering wrong: tag=%v sq=%v rnd=%v", tag, sq, rnd)
	}
	// Small jobs see near-unit slowdown under TAG, far below baselines.
	if !(small.Y[0] < small.Y[2]/5 && small.Y[0] < small.Y[1]/5) {
		t.Fatalf("TAG small-job slowdown %v not dramatically below %v / %v",
			small.Y[0], small.Y[1], small.Y[2])
	}
}

func TestMultiNodeTable(t *testing.T) {
	f, err := MultiNodeTable(ShortParams())
	if err != nil {
		t.Fatal(err)
	}
	x2, _ := seriesByName(f, "X-2node")
	x3, _ := seriesByName(f, "X-3node")
	last := len(x2.Y) - 1
	// At high load the extra node's capacity shows up as throughput.
	if !(x3.Y[last] > x2.Y[last]) {
		t.Fatalf("third node should add throughput at high load: %v vs %v", x3.Y[last], x2.Y[last])
	}
}

func TestPassageTable(t *testing.T) {
	p := ShortParams()
	p.N, p.K = 3, 6 // keep the dense hitting-time solves small
	f, err := PassageTable(p)
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := seriesByName(f, "TAG-node1-fills")
	sb, _ := seriesByName(f, "SQ-both-fill(loss)")
	for i := range t1.Y {
		if t1.Y[i] <= 0 || sb.Y[i] <= 0 {
			t.Fatalf("fill times must be positive: %v %v", t1.Y, sb.Y)
		}
		// Fill times shrink as load grows.
		if i > 0 && (t1.Y[i] >= t1.Y[i-1] || sb.Y[i] >= sb.Y[i-1]) {
			t.Fatalf("fill times should fall with load: %v %v", t1.Y, sb.Y)
		}
	}
}

func TestErlangErrorShrinksWithPhases(t *testing.T) {
	f, err := ErlangErrorTable(ShortParams(), 150000, 7)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := seriesByName(f, "W-relative-error")
	// The Erlang CTMC overestimates W (extra timeout variance) and the
	// error decreases with n.
	first, last := rel.Y[0], rel.Y[len(rel.Y)-1]
	if !(first > 0 && last > 0) {
		t.Fatalf("errors should be positive: %v", rel.Y)
	}
	if !(last < first/3) {
		t.Fatalf("error should shrink substantially: %v -> %v", first, last)
	}
	for i := 1; i < len(rel.Y); i++ {
		if rel.Y[i] > rel.Y[i-1]+1e-9 {
			t.Fatalf("error not monotone: %v", rel.Y)
		}
	}
}

func TestFairnessTableNearOptimumBalanced(t *testing.T) {
	if testing.Short() {
		t.Skip("four tagged-chain solves on ~10k states")
	}
	f, err := FairnessTable(ShortParams())
	if err != nil {
		t.Fatal(err)
	}
	sShort, _ := seriesByName(f, "slowdown-short")
	sLong, _ := seriesByName(f, "slowdown-long")
	// Near the optimum (rate 2) the class slowdowns are within a factor
	// of two of each other; at the worst surveyed rate the short-job
	// slowdown blows up far beyond the long jobs'.
	ratioOpt := sShort.Y[1] / sLong.Y[1]
	if ratioOpt < 0.5 || ratioOpt > 2 {
		t.Fatalf("near-optimal slowdowns unbalanced: short %v long %v", sShort.Y[1], sLong.Y[1])
	}
	// Larger rates push short jobs through node 2 (restart waste):
	// their slowdown rises monotonically with the rate beyond optimum.
	if !(sShort.Y[3] > sShort.Y[1]) {
		t.Fatalf("short slowdown should grow when mistuned: %v", sShort.Y)
	}
}

func TestTaggedTableMonotoneInLoad(t *testing.T) {
	p := ShortParams()
	p.N, p.K = 4, 8
	f, err := TaggedTable(p)
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := seriesByName(f, "mean")
	p99, _ := seriesByName(f, "p99")
	succ, _ := seriesByName(f, "P(success)")
	for i := 1; i < len(mean.Y); i++ {
		if mean.Y[i] <= mean.Y[i-1] {
			t.Fatalf("mean should rise with load: %v", mean.Y)
		}
		if p99.Y[i] <= p99.Y[i-1] {
			t.Fatalf("p99 should rise with load: %v", p99.Y)
		}
		if succ.Y[i] > succ.Y[i-1]+1e-12 {
			t.Fatalf("success should fall with load: %v", succ.Y)
		}
	}
	// Percentile ordering.
	med, _ := seriesByName(f, "p50")
	p90, _ := seriesByName(f, "p90")
	for i := range med.Y {
		if !(med.Y[i] < p90.Y[i] && p90.Y[i] < p99.Y[i]) {
			t.Fatalf("percentile ordering broken at %d: %v %v %v", i, med.Y[i], p90.Y[i], p99.Y[i])
		}
	}
}

func TestVariantsTableShapes(t *testing.T) {
	f, err := VariantsTable(ShortParams())
	if err != nil {
		t.Fatal(err)
	}
	base, _ := seriesByName(f, "W-calibrated")
	alone, _ := seriesByName(f, "W-serve-alone")
	hetero, _ := seriesByName(f, "W-fast-node2")
	for i := range base.Y {
		// The serve-alone courtesy and a faster node 2 both help.
		if alone.Y[i] >= base.Y[i] {
			t.Fatalf("serve-alone should improve W at x=%v: %v vs %v", base.X[i], alone.Y[i], base.Y[i])
		}
		if hetero.Y[i] >= base.Y[i] {
			t.Fatalf("fast node 2 should improve W at x=%v: %v vs %v", base.X[i], hetero.Y[i], base.Y[i])
		}
	}
}

func TestSensitivityTableSigns(t *testing.T) {
	f, err := SensitivityTable(ShortParams())
	if err != nil {
		t.Fatal(err)
	}
	expW, _ := seriesByName(f, "exp-W-elasticity")
	// Below the exp optimum (t=21) W falls with t (negative elasticity);
	// above it (t=84) W rises.
	if !(expW.Y[0] < 0 && expW.Y[2] > 0) {
		t.Fatalf("exp W elasticity signs wrong: %v", expW.Y)
	}
	h2W, _ := seriesByName(f, "h2-W-elasticity")
	if !(h2W.Y[0] < 0 && h2W.Y[2] > 0) {
		t.Fatalf("h2 W elasticity signs wrong: %v", h2W.Y)
	}
}

// seriesByName finds a series of the figure.
func seriesByName(f *obsv.Figure, name string) (obsv.Series, bool) {
	for _, s := range f.Series {
		if s.Name == name {
			return s, true
		}
	}
	return obsv.Series{}, false
}

// minY returns the x at which the series attains its minimum y.
func minY(s obsv.Series) (x, y float64) {
	if len(s.Y) == 0 {
		return 0, 0
	}
	x, y = s.X[0], s.Y[0]
	for i := range s.Y {
		if s.Y[i] < y {
			x, y = s.X[i], s.Y[i]
		}
	}
	return
}

// maxY returns the x at which the series attains its maximum y.
func maxY(s obsv.Series) (x, y float64) {
	if len(s.Y) == 0 {
		return 0, 0
	}
	x, y = s.X[0], s.Y[0]
	for i := range s.Y {
		if s.Y[i] > y {
			x, y = s.X[i], s.Y[i]
		}
	}
	return
}
