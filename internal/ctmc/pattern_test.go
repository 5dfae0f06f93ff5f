package ctmc

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"pepatags/internal/linalg"
)

// randomStructure returns a transition structure (from, to pairs) with
// deliberate duplicate (from, to) pairs — including groups of three or
// more — and occasional self-loops, so the tests exercise the
// duplicate-summation order that GenPattern must reproduce exactly.
func randomStructure(rng *rand.Rand, n, m int) [][2]int {
	var trs [][2]int
	for k := 0; k < m; k++ {
		from := rng.Intn(n)
		to := rng.Intn(n)
		trs = append(trs, [2]int{from, to})
		// With some probability, immediately add duplicates of the same
		// pair so runs of length 2-4 appear.
		for rng.Float64() < 0.4 {
			trs = append(trs, [2]int{from, to})
		}
	}
	// Every state gets at least one outgoing edge.
	for i := 0; i < n; i++ {
		trs = append(trs, [2]int{i, (i + 1) % n})
	}
	return trs
}

func chainFromStructure(trs [][2]int, n int, rate func(k int) float64) *Chain {
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.State(stateName(i))
	}
	for k, t := range trs {
		b.Transition(t[0], t[1], rate(k), "a")
	}
	return b.Build()
}

// cooGenerator is the reference assembly the pattern is checked
// against: the chain's off-diagonal transitions in order, then one
// diagonal entry per row with outflow, rows ascending, summed by
// linalg.COO.ToCSR.
func cooGenerator(c *Chain) *linalg.CSR {
	n := c.NumStates()
	coo := linalg.NewCOO(n, n)
	out := make([]float64, n)
	for _, t := range c.Transitions() {
		if t.From == t.To {
			continue
		}
		coo.Add(t.From, t.To, t.Rate)
		out[t.From] += t.Rate
	}
	for i, o := range out {
		if o > 0 {
			coo.Add(i, i, -o)
		}
	}
	return coo.ToCSR()
}

// patternOf derives the generator pattern of chains with the
// transition structure trs.
func patternOf(trs [][2]int, n int) *GenPattern {
	from, to := make([]int32, len(trs)), make([]int32, len(trs))
	for k, t := range trs {
		from[k], to[k] = int32(t[0]), int32(t[1])
	}
	return NewGenPattern(n, from, to)
}

func stateName(i int) string { return string(rune('A' + i)) }

func requireSameCSR(t *testing.T, trial int, got, want *linalg.CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.NNZ() != want.NNZ() {
		t.Fatalf("trial %d: shape mismatch: %dx%d nnz %d vs %dx%d nnz %d",
			trial, got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
	for i := 0; i <= got.Rows; i++ {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("trial %d: RowPtr[%d] %d != %d", trial, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range got.ColIdx {
		if got.ColIdx[k] != want.ColIdx[k] {
			t.Fatalf("trial %d: ColIdx[%d] %d != %d", trial, k, got.ColIdx[k], want.ColIdx[k])
		}
		if got.Val[k] != want.Val[k] {
			t.Fatalf("trial %d: Val[%d] %v != %v (duplicate-summation order?)",
				trial, k, got.Val[k], want.Val[k])
		}
	}
}

// TestGenPatternMatchesGeneratorExactly asserts that a generator filled
// through a pattern is bit-identical to the coordinate-list assembly
// (cooGenerator), both for the chain the pattern was derived from and
// for siblings with different rates. The last input is large (20,000
// states, about 95,000 transitions with runs of two to four parallel
// ones), so the pattern's row bucketing is checked beside the
// reference's full sort at a size where a comparison sort partitions.
func TestGenPatternMatchesGeneratorExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(6)
		checkPatternAgainstCOO(t, trial, randomStructure(rng, n, 3+rng.Intn(12)), n, rng)
	}
	n := 20000
	checkPatternAgainstCOO(t, 80, randomStructure(rng, n, 45000), n, rng)
}

// checkPatternAgainstCOO fills the pattern of the structure trs at two
// random rate vectors, through Apply and through Fill into stale
// buffers, and requires each generator to match cooGenerator's bits.
func checkPatternAgainstCOO(t *testing.T, trial int, trs [][2]int, n int, rng *rand.Rand) {
	t.Helper()
	rates := make([]float64, len(trs))
	rates2 := make([]float64, len(trs))
	for k := range trs {
		rates[k] = 0.1 + rng.Float64()*10
		rates2[k] = 0.1 + rng.Float64()*10
	}
	pat := patternOf(trs, n)
	ca := chainFromStructure(trs, n, func(k int) float64 { return rates[k] })
	if err := pat.Apply(ca); err != nil {
		t.Fatalf("trial %d: Apply: %v", trial, err)
	}
	wantA := cooGenerator(chainFromStructure(trs, n, func(k int) float64 { return rates[k] }))
	requireSameCSR(t, trial, ca.Generator(), wantA)

	// Fill into reused buffers, holding stale values from the
	// previous fill.
	out, vals := make([]float64, n), make([]float64, pat.NNZ())
	for k := range out {
		out[k] = 7
	}
	pat.Fill(rates2, out, vals)
	pat.Fill(rates, out, vals)
	requireSameCSR(t, trial, pat.CSR(vals), wantA)

	// Sibling at different rates.
	want := cooGenerator(chainFromStructure(trs, n, func(k int) float64 { return rates2[k] }))
	cb := chainFromStructure(trs, n, func(k int) float64 { return rates2[k] })
	cb.gen = nil
	if err := pat.Apply(cb); err != nil {
		t.Fatalf("trial %d: Apply: %v", trial, err)
	}
	requireSameCSR(t, trial, cb.Generator(), want)
}

// TestGenPatternSumsDuplicatesInTransitionOrder pins the documented
// summation order of parallel transitions: every generator entry is the
// left-to-right sum of its transitions' rates in transition order (the
// diagonal the negated left-to-right outflow), computed here without
// linalg.COO. Runs of three parallel transitions carry the rates 1,
// 2^53 and 1 in some order, so each order gives a different sum
// (1+2^53+1 = 2^53, 1+1+2^53 = 2^53+2); about 50,000 entries make a
// comparison sort partition, which permutes such runs.
func TestGenPatternSumsDuplicatesInTransitionOrder(t *testing.T) {
	const n = 10000
	rng := rand.New(rand.NewSource(26))
	big := math.Ldexp(1, 53)
	var trs []Transition
	for len(trs) < 48000 {
		from, to := rng.Intn(n), rng.Intn(n)
		if rng.Intn(3) > 0 {
			trs = append(trs, Transition{From: from, To: to, Rate: 0.1 + rng.Float64()*10, Action: "a"})
			continue
		}
		rs := []float64{1, 1, big}
		rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		for _, r := range rs {
			trs = append(trs, Transition{From: from, To: to, Rate: r, Action: "a"})
		}
	}
	// Scatter the parallel transitions through the list.
	rng.Shuffle(len(trs), func(i, j int) { trs[i], trs[j] = trs[j], trs[i] })
	for i := 0; i < n; i++ {
		trs = append(trs, Transition{From: i, To: (i + 1) % n, Rate: 1, Action: "a"})
	}

	want := make(map[[2]int]float64)
	out := make([]float64, n)
	for _, tr := range trs {
		if tr.From != tr.To {
			want[[2]int{tr.From, tr.To}] += tr.Rate
			out[tr.From] += tr.Rate
		}
	}
	for i, o := range out {
		want[[2]int{i, i}] = -o
	}

	labels := make([]string, n)
	for i := range labels {
		labels[i] = strconv.Itoa(i)
	}
	q := NewChain(labels, trs).Generator()
	if q.NNZ() != len(want) {
		t.Fatalf("generator has %d entries, want %d", q.NNZ(), len(want))
	}
	for i := 0; i < n; i++ {
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			j := q.ColIdx[k]
			if k > q.RowPtr[i] && j <= q.ColIdx[k-1] {
				t.Fatalf("row %d: columns not increasing at %d", i, j)
			}
			w, ok := want[[2]int{i, j}]
			if !ok {
				t.Fatalf("entry (%d,%d) has no transition", i, j)
			}
			if math.Float64bits(q.Val[k]) != math.Float64bits(w) {
				t.Fatalf("entry (%d,%d) = %v, want %v (the sum in transition order)", i, j, q.Val[k], w)
			}
		}
	}
}

func TestGenPatternRejectsMismatchedStructure(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 3; i++ {
		b.State(stateName(i))
	}
	b.Transition(0, 1, 1, "a")
	b.Transition(1, 2, 2, "a")
	b.Transition(2, 0, 3, "a")
	pat := patternOf([][2]int{{0, 1}, {1, 2}, {2, 0}}, 3)
	if err := pat.Apply(b.Build()); err != nil {
		t.Fatal(err)
	}

	// Wrong state count.
	b2 := NewBuilder()
	b2.State("A")
	b2.State("B")
	b2.Transition(0, 1, 1, "a")
	b2.Transition(1, 0, 1, "a")
	b2.Transition(1, 0, 1, "a")
	if err := pat.Apply(b2.Build()); err == nil {
		t.Fatal("expected state-count mismatch error")
	}

	// Same counts, different pairs.
	b3 := NewBuilder()
	for i := 0; i < 3; i++ {
		b3.State(stateName(i))
	}
	b3.Transition(0, 2, 1, "a")
	b3.Transition(1, 2, 2, "a")
	b3.Transition(2, 0, 3, "a")
	if err := pat.Apply(b3.Build()); err == nil {
		t.Fatal("expected transition-pair mismatch error")
	}
}

// TestGenPatternPanicsOnMisuse covers the checks a pattern makes of
// its structure and of Fill's buffers.
func TestGenPatternPanicsOnMisuse(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	mustPanic("endpoint out of range", func() { NewGenPattern(2, []int32{0, 2}, []int32{1, 0}) })
	mustPanic("unequal endpoint lists", func() { NewGenPattern(2, []int32{0}, []int32{1, 0}) })
	pat := patternOf([][2]int{{0, 1}, {1, 0}}, 2)
	mustPanic("short rate list", func() { pat.Fill([]float64{1}, make([]float64, 2), make([]float64, pat.NNZ())) })
}

// TestSiblingChainsShareLabels builds two chains over one label slice,
// as a skeleton's instances are, at different rates.
func TestSiblingChainsShareLabels(t *testing.T) {
	labels := []string{"X", "Y"}
	c1 := NewChain(labels, []Transition{{From: 0, To: 1, Rate: 1, Action: "a"}, {From: 1, To: 0, Rate: 2, Action: "b"}})
	c2 := NewChain(labels, []Transition{{From: 0, To: 1, Rate: 3, Action: "a"}, {From: 1, To: 0, Rate: 4, Action: "b"}})
	if c1.Label(0) != "X" || c2.Label(1) != "Y" {
		t.Fatal("labels not shared correctly")
	}
	pi1, err := c1.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	pi2, err := c2.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if pi1[0] == pi2[0] {
		t.Fatal("expected different stationary distributions for different rates")
	}
}
