package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pepatags/internal/core"
	"pepatags/internal/obsv"
)

// testSpec is a small tagexp grid (one shape, nPoints rate values)
// plus a flat shortest-queue baseline point.
func testSpec(nPoints int) *Spec {
	vals := make([]float64, nPoints)
	for i := range vals {
		vals[i] = float64(i + 2)
	}
	return &Spec{
		Schema: SpecSchema,
		Name:   "test",
		Groups: []Group{{
			Point: Point{
				Series: "tag", Model: "tagexp",
				Lambda: 5, N: 2, K1: 3, K2: 3,
				Service: ServiceSpec{Kind: "exp", Mu: 10},
			},
			Axes: []Axis{{Field: "t", Values: vals}},
		}},
		Points: []Point{
			{Series: "sq", Model: "shortest-queue", Lambda: 5, K1: 3, Service: ServiceSpec{Kind: "exp", Mu: 10}},
		},
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRunMatchesDirectSolve(t *testing.T) {
	spec := testSpec(4)
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.Rows))
	}
	for i, r := range res.Rows[:4] {
		want, err := core.NewTAGExp(5, 10, float64(i+2), 2, 3, 3).Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if r.Measures["W"] != want.W || r.Measures["L"] != want.L || r.Measures["throughput"] != want.Throughput {
			t.Errorf("row %d: measures %v do not match direct solve %+v", i, r.Measures, want)
		}
		if int(r.Measures["states"]) != want.States {
			t.Errorf("row %d: states %g, want %d", i, r.Measures["states"], want.States)
		}
	}
	// One shape for the whole tag grid: 1 miss, 3 hits, baseline uncached.
	if res.CacheMisses != 1 || res.CacheHits != 3 {
		t.Errorf("cache hits/misses = %d/%d, want 3/1", res.CacheHits, res.CacheMisses)
	}
}

// TestKillAndResume is the crash-recovery contract: a journal truncated
// mid-write (complete prefix + partial trailing line), resumed, must
// end up byte-identical to an uninterrupted run, with the same rows.
func TestKillAndResume(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(5)

	clean := filepath.Join(dir, "clean.jsonl")
	cleanRes, err := Run(spec, Options{Journal: clean, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cleanBytes := readFile(t, clean)

	lines := bytes.SplitAfter(cleanBytes, []byte("\n"))
	// lines: header, 6 rows, trailing empty slice.
	if len(lines) != 8 || len(lines[7]) != 0 {
		t.Fatalf("unexpected journal layout: %d lines", len(lines))
	}

	for _, tc := range []struct {
		name    string
		rows    int    // complete rows to keep
		garbage string // appended after the kept prefix
	}{
		{"partial-trailing-line", 3, `{"seq":3,"ser`},
		{"complete-but-corrupt-line", 2, "{\"seq\":2,\n"},
		{"clean-prefix", 4, ""},
		{"header-only", 0, ""},
		{"already-complete", 6, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			journal := filepath.Join(dir, tc.name+".jsonl")
			var killed []byte
			for _, ln := range lines[:1+tc.rows] {
				killed = append(killed, ln...)
			}
			killed = append(killed, tc.garbage...)
			if err := os.WriteFile(journal, killed, 0o644); err != nil {
				t.Fatal(err)
			}
			res, err := Run(spec, Options{Journal: journal, Resume: true, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if res.Resumed != tc.rows {
				t.Errorf("resumed %d rows, want %d", res.Resumed, tc.rows)
			}
			if got := readFile(t, journal); !bytes.Equal(got, cleanBytes) {
				t.Errorf("resumed journal differs from clean run:\n%s\nwant:\n%s", got, cleanBytes)
			}
			if !reflect.DeepEqual(res.Rows, cleanRes.Rows) {
				t.Errorf("resumed rows differ from clean run")
			}
		})
	}
}

// optTGroups are opt-t searches (t in [2, 12]) over the exponential
// and the H2 TAG model with N=2. K=3 keeps every chain on the direct
// GTH stage; the larger K puts it on Gauss–Seidel, where each search
// warm-starts its solves.
func optTGroups() []Group {
	return []Group{
		{
			Point: Point{
				Series: "opt-exp", Model: "opt-t", Metric: "min-response",
				N: 2, TLo: 2, THi: 12, Service: ServiceSpec{Kind: "exp", Mu: 10},
			},
			Axes: []Axis{{Field: "lambda", Values: []float64{3, 7}}, {Field: "k", Values: []float64{3, 8}}},
		},
		{
			Point: Point{
				Series: "opt-h2", Model: "opt-t", Metric: "min-queue",
				N: 2, TLo: 2, THi: 12, Service: ServiceSpec{Kind: "h2", Mean: 0.1, Alpha: 0.9, Ratio: 10},
			},
			Axes: []Axis{{Field: "lambda", Values: []float64{3, 7}}, {Field: "k", Values: []float64{3, 6}}},
		},
	}
}

// TestJournalIndependentOfWorkers: identical bytes at any pool size,
// and identical rows per point in any point order. The opt-t groups
// check that an evaluation's warm start never crosses points.
func TestJournalIndependentOfWorkers(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(6)
	spec.Groups = append(spec.Groups, optTGroups()...)
	var first []byte
	var rows []Row
	for _, workers := range []int{1, 4} {
		journal := filepath.Join(dir, "w.jsonl")
		res, err := Run(spec, Options{Journal: journal, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		b := readFile(t, journal)
		if first == nil {
			first, rows = b, res.Rows
		} else if !bytes.Equal(first, b) {
			t.Errorf("journal bytes differ between workers=1 and workers=4")
		}
	}

	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	order := rand.New(rand.NewPCG(1, 2)).Perm(len(points))
	shuffled := &Spec{Schema: SpecSchema, Name: "shuffled"}
	for _, i := range order {
		shuffled.Points = append(shuffled.Points, points[i])
	}
	res, err := Run(shuffled, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for j, i := range order {
		if !reflect.DeepEqual(res.Rows[j].Measures, rows[i].Measures) {
			t.Errorf("point %d (series %q) moved to %d: rows differ\n got %v\nwant %v",
				i, points[i].Series, j, res.Rows[j].Measures, rows[i].Measures)
		}
	}
}

func TestResumeRejectsChangedSpec(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "j.jsonl")
	if _, err := Run(testSpec(3), Options{Journal: journal}); err != nil {
		t.Fatal(err)
	}
	other := testSpec(3)
	other.Groups[0].Point.Lambda = 6 // same shape, different rates: different sweep
	_, err := Run(other, Options{Journal: journal, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "spec") {
		t.Fatalf("resume against edited spec: got %v, want spec-mismatch error", err)
	}
}

func TestResumeRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "j.jsonl")
	if err := os.WriteFile(journal, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(testSpec(3), Options{Journal: journal, Resume: true}); err == nil {
		t.Fatal("resume on a non-journal file should fail")
	}
}

func TestSpecHash(t *testing.T) {
	h1, err := testSpec(3).Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := testSpec(3).Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("hash of identical specs differs")
	}
	changed := testSpec(3)
	changed.Groups[0].Point.Service.Mu = 11
	h3, err := changed.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Error("hash unchanged after editing a rate")
	}

	// A spec loaded from JSON hashes identically to the in-memory one.
	b, err := json.Marshal(testSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	h4, err := loaded.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h4 != h1 {
		t.Error("hash differs after JSON round trip")
	}
}

// TestSpecResolve checks that Resolve returns Expand's points and
// Hash's address, and refuses what Validate refuses.
func TestSpecResolve(t *testing.T) {
	spec := testSpec(3)
	points, hash, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(points, want) {
		t.Errorf("Resolve points %v, Expand %v", points, want)
	}
	if h, err := spec.Hash(); err != nil || h != hash {
		t.Errorf("Resolve hash %s, Hash %s (%v)", hash, h, err)
	}
	spec.Name = ""
	if _, _, err := spec.Resolve(); err == nil || spec.Validate() == nil {
		t.Error("a spec without a name resolved")
	}
}

func TestExpandGridAndValidation(t *testing.T) {
	spec := &Spec{
		Schema: SpecSchema,
		Name:   "grid",
		Groups: []Group{{
			Point: Point{Series: "g", Model: "tagexp", N: 2, K1: 2, K2: 2, Service: ServiceSpec{Kind: "exp", Mu: 10}},
			Axes: []Axis{
				{Field: "lambda", Values: []float64{5, 7}},
				{Field: "t", Linspace: &Linspace{From: 2, To: 4, Num: 3}},
			},
		}},
	}
	pts, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("got %d points, want 6", len(pts))
	}
	// First axis slowest; X tracks it.
	wantLambda := []float64{5, 5, 5, 7, 7, 7}
	wantT := []float64{2, 3, 4, 2, 3, 4}
	for i, p := range pts {
		if p.Lambda != wantLambda[i] || p.T != wantT[i] || p.X != wantLambda[i] {
			t.Errorf("point %d: lambda=%g t=%g x=%g, want lambda=%g t=%g", i, p.Lambda, p.T, p.X, wantLambda[i], wantT[i])
		}
	}

	bad := testSpec(2)
	bad.Groups[0].Point.Lambda = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative lambda should fail validation")
	}
	bad2 := testSpec(2)
	bad2.Schema = "nope"
	if err := bad2.Validate(); err == nil {
		t.Error("wrong schema should fail validation")
	}
}

// TestOversizedSpecFailsFast: a spec whose expansion exceeds
// maxPoints is rejected from its axis lengths alone, before the grid or
// point slices are made.
func TestOversizedSpecFailsFast(t *testing.T) {
	template := Point{Series: "g", Model: "tagexp", Lambda: 5, T: 3, N: 2, K1: 2, K2: 2, Service: ServiceSpec{Kind: "exp", Mu: 10}}
	lin := func(num int) Axis { return Axis{Field: "t", Linspace: &Linspace{From: 1, To: 2, Num: num}} }
	for name, groups := range map[string][]Group{
		"huge linspace":     {{Point: template, Axes: []Axis{lin(1_000_000_000)}}},
		"axis product":      {{Point: template, Axes: []Axis{lin(maxPoints), lin(maxPoints), lin(maxPoints)}}},
		"sum over groups":   {{Point: template, Axes: []Axis{lin(maxPoints)}}, {Point: template, Axes: []Axis{lin(1)}}},
		"just over the cap": {{Point: template, Axes: []Axis{lin(maxPoints/2 + 1), lin(2)}}},
	} {
		spec := &Spec{Schema: SpecSchema, Name: "big", Groups: groups}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := spec.Validate()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "points") {
			t.Errorf("%s: Validate = %v, want a point-count error", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: Validate allocated %d bytes before failing", name, grew)
		}
	}
	literal := &Spec{Schema: SpecSchema, Name: "big", Points: make([]Point, maxPoints+1)}
	if err := literal.Validate(); err == nil || !strings.Contains(err.Error(), "points") {
		t.Errorf("literal points over the cap: Validate = %v, want a point-count error", err)
	}
	// The cap itself is allowed.
	spec := &Spec{Schema: SpecSchema, Name: "cap", Groups: []Group{{Point: template, Axes: []Axis{lin(maxPoints / 2), lin(2)}}}}
	if pts, err := spec.Expand(); err != nil || len(pts) != maxPoints {
		t.Fatalf("spec at the cap: %d points, %v", len(pts), err)
	}
}

func TestAssembleBroadcastAndNotes(t *testing.T) {
	spec := testSpec(3)
	spec.Figure = &FigureSpec{
		ID:     "fig-test",
		Title:  "t",
		XLabel: "x",
		YLabel: "y",
		Series: []SeriesSpec{
			{Name: "TAG", From: "tag", Measure: "W"},
			{Name: "SQ", From: "sq", Measure: "W", BroadcastX: "tag"},
		},
		Notes: []NoteSpec{
			{Template: "TAG CTMC has %d states", Args: []string{"states:int"}, From: "tag"},
			{Template: "t=%g: W=%.3g", Args: []string{"x", "W"}, From: "tag", EachPoint: true},
			{Text: "literal"},
		},
	}
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Assemble(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series) != 2 {
		t.Fatalf("got %d series, want 2", len(tbl.Series))
	}
	tag, sq := tbl.Series[0], tbl.Series[1]
	if !reflect.DeepEqual(tag.X, []float64{2, 3, 4}) {
		t.Errorf("tag X = %v", tag.X)
	}
	if !reflect.DeepEqual(sq.X, tag.X) {
		t.Errorf("broadcast X = %v, want the tag grid %v", sq.X, tag.X)
	}
	for i := 1; i < len(sq.Y); i++ {
		if sq.Y[i] != sq.Y[0] {
			t.Errorf("broadcast Y not flat: %v", sq.Y)
		}
	}
	// 1 header note + 3 per-point notes + 1 literal.
	if len(tbl.Notes) != 5 {
		t.Fatalf("got %d notes: %v", len(tbl.Notes), tbl.Notes)
	}
	if !strings.HasPrefix(tbl.Notes[0], "TAG CTMC has ") || strings.Contains(tbl.Notes[0], "%!") {
		t.Errorf("states note: %q", tbl.Notes[0])
	}
	if !strings.HasPrefix(tbl.Notes[1], "t=2: W=") {
		t.Errorf("per-point note: %q", tbl.Notes[1])
	}
	if tbl.Notes[4] != "literal" {
		t.Errorf("literal note: %q", tbl.Notes[4])
	}
}

func TestRunRecordsObservability(t *testing.T) {
	reg := obsv.NewRegistry()
	span := obsv.NewSpan("sweep-test")
	res, err := Run(testSpec(3), Options{Registry: reg, Span: span, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	span.End()
	snap := reg.Snapshot()
	want := map[string]int64{
		"sweep.points_total":   4,
		"sweep.points_done":    4,
		"sweep.cache_hits":     res.CacheHits,
		"sweep.cache_misses":   res.CacheMisses,
		"sweep.points_resumed": 0,
	}
	got := make(map[string]int64)
	for _, m := range snap {
		if m.Kind == "counter" {
			got[m.Name] = int64(m.Value)
		}
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
	var seconds bool
	for _, m := range snap {
		if m.Name == "sweep.point_seconds" && m.Count == 4 {
			seconds = true
		}
	}
	if !seconds {
		t.Errorf("sweep.point_seconds histogram missing or wrong count in %+v", snap)
	}
}

func TestEvalPointOptT(t *testing.T) {
	cache := NewCache()
	p := Point{
		Series: "opt", Model: "opt-t", Metric: "min-queue",
		Lambda: 5, N: 2, K1: 3, K2: 3,
		Service: ServiceSpec{Kind: "exp", Mu: 10},
		TLo:     2, THi: 12,
	}
	out, err := evalPoint(cache, p)
	if err != nil {
		t.Fatal(err)
	}
	tOpt := out["t_opt"]
	if tOpt < 2 || tOpt > 12 || tOpt != math.Trunc(tOpt) {
		t.Fatalf("t_opt = %g, want an integer in [2, 12]", tOpt)
	}
	if out["t_opt_eff"] != tOpt/2 {
		t.Errorf("t_opt_eff = %g, want %g", out["t_opt_eff"], tOpt/2)
	}
	// The searched optimum must beat its neighbours on the metric.
	evalL := func(tv float64) float64 {
		m, err := core.NewTAGExp(5, 10, tv, 2, 3, 3).Analyze()
		if err != nil {
			t.Fatal(err)
		}
		return m.L
	}
	best := evalL(tOpt)
	if out["L"] != best {
		t.Errorf("reported L %g differs from direct solve %g", out["L"], best)
	}
	for _, tv := range []float64{tOpt - 1, tOpt + 1} {
		if tv >= 2 && tv <= 12 && evalL(tv) < best {
			t.Errorf("t=%g beats reported optimum t=%g", tv, tOpt)
		}
	}
}

// Shapes returns the number of distinct shapes derived so far.
func (c *Cache) Shapes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// FuzzSpec decodes arbitrary JSON as a spec and validates it, as
// pepad's POST /v1/jobs and tagseval -sweep do. Validation must return
// an error, never panic or allocate past the point bound, and an
// accepted spec must expand within the bound and keep its hash across
// a JSON round trip. The seed corpus under testdata/fuzz/FuzzSpec
// holds the built-in figure specs (tagseval -spec-dump).
func FuzzSpec(f *testing.F) {
	b, err := json.Marshal(testSpec(3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add([]byte(`{"schema":"pepatags/sweep-spec/v1","name":"x","groups":[{"point":{"series":"s","model":"tagexp","lambda":5,"n":2,"k1":2,"k2":2,"service":{"kind":"exp","mu":10}},"axes":[{"field":"t","linspace":{"from":1,"to":2,"num":1000000000}}]}]}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		var spec Spec
		if err := json.Unmarshal(in, &spec); err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			return
		}
		pts, err := spec.Expand()
		if err != nil || len(pts) == 0 || len(pts) > maxPoints {
			t.Fatalf("accepted spec expands to %d points (%v)", len(pts), err)
		}
		h1, err := spec.Hash()
		if err != nil {
			t.Fatalf("accepted spec has no hash: %v", err)
		}
		out, err := json.Marshal(&spec)
		if err != nil {
			t.Fatalf("accepted spec fails to encode: %v", err)
		}
		var again Spec
		if err := json.Unmarshal(out, &again); err != nil {
			t.Fatalf("encoded spec fails to decode: %v", err)
		}
		if h2, err := again.Hash(); err != nil || h2 != h1 {
			t.Fatalf("hash changed across a JSON round trip: %s -> %s (%v)", h1, h2, err)
		}
	})
}
