package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
)

// The TAG-variant pin: state and transition counts, every Measures /
// MultiMeasures field and the tagged-job figures of a fixed set of
// instances, plus the SHA-256 of the generated PEPA texts. The JSQ,
// JSQ-MMPP and round-robin baselines are pinned the same way, with
// their response-time percentiles and JSQ's fill times. The golden
// file was recorded from the hand-written per-variant builders; any
// rewrite of the derivations must reproduce it (counts and hashes
// exactly, floating-point figures to 1e-12 relative).

const pinGolden = "testdata/variants_pin.golden"

// pinRecorder accumulates "instance field value" lines.
type pinRecorder struct{ lines []string }

func (r *pinRecorder) add(inst, field, value string) {
	r.lines = append(r.lines, inst+" "+field+" "+value)
}

func (r *pinRecorder) float(inst, field string, v float64) {
	r.add(inst, field, strconv.FormatFloat(v, 'g', 17, 64))
}

// fields records every exported field of a measures struct.
func (r *pinRecorder) fields(inst string, m any) {
	v := reflect.ValueOf(m)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			r.add(inst, name, strconv.FormatInt(f.Int(), 10))
		case reflect.Float64:
			r.float(inst, name, f.Float())
		case reflect.Slice:
			for j := 0; j < f.Len(); j++ {
				r.float(inst, fmt.Sprintf("%s[%d]", name, j), f.Index(j).Float())
			}
		default:
			panic("pin: unhandled field kind " + f.Kind().String())
		}
	}
}

func (r *pinRecorder) tagged(inst string, tr *TaggedResponse, err error) {
	if err != nil {
		panic(fmt.Sprintf("pin %s: %v", inst, err))
	}
	r.add(inst, "States", strconv.Itoa(tr.States()))
	r.float(inst, "SuccessProbability", tr.SuccessProbability())
	r.float(inst, "MeanResponse", tr.MeanResponse())
	for _, x := range []float64{0.5, 2} {
		p, err := tr.CDF(x * tr.MeanResponse())
		if err != nil {
			panic(err)
		}
		r.float(inst, fmt.Sprintf("CDF(%gxMean)", x), p)
	}
}

func (r *pinRecorder) chain(inst string, states, transitions int) {
	r.add(inst, "chain.states", strconv.Itoa(states))
	r.add(inst, "chain.transitions", strconv.Itoa(transitions))
}

func (r *pinRecorder) source(inst, text string) {
	h := sha256.Sum256([]byte(text))
	r.add(inst, "sha256", hex.EncodeToString(h[:]))
}

func pinRecord() []string {
	var r pinRecorder
	must := func(m Measures, err error) Measures {
		if err != nil {
			panic(err)
		}
		return m
	}
	two := func(inst string, c *ctmc.Chain, analyze func() (Measures, error)) {
		r.chain(inst, c.NumStates(), c.NumTransitions())
		r.fields(inst, must(analyze()))
	}

	h2 := NewTAGH2(8, dist.NewH2(0.9, 18, 1.5), 30, 4, 6, 6)
	two("tagh2", h2.Build(), h2.Analyze)
	h2deg := NewTAGH2(6, dist.NewH2(1, 10, 2), 24, 3, 5, 5)
	two("tagh2-alpha1", h2deg.Build(), h2deg.Analyze)

	het := NewTAGHetero(9, 10, 20, 42, 30, 5, 7, 6)
	two("taghetero", het.Build(), het.Analyze)
	alone := het
	alone.ServeAloneToCompletion = true
	two("taghetero-alone", alone.Build(), alone.Analyze)

	mm := NewTAGExpMMPP(BurstyMMPP2(8, 2, 0.5), 10, 28, 4, 6, 6)
	two("tagexpmmpp", mm.Build(), mm.Analyze)
	h2mm := NewTAGH2MMPP(BurstyMMPP2(6, 1.5, 0.8), dist.NewH2(0.8, 16, 2), 24, 3, 5, 5)
	two("tagh2mmpp", h2mm.Build(), h2mm.Analyze)

	for _, k := range [][]int{{6, 6}, {4, 3, 3}} {
		mn := NewTAGMultiNode(7, 10, 30, 3, k)
		inst := fmt.Sprintf("tagmultinode-m%d", len(k))
		c := mn.Build()
		r.chain(inst, c.NumStates(), c.NumTransitions())
		mm, err := mn.Analyze()
		if err != nil {
			panic(err)
		}
		r.fields(inst, mm)
	}

	exp := NewTAGExp(7, 10, 28, 4, 6, 6)
	tr, err := exp.TaggedJob()
	r.tagged("tagexp-tagged", tr, err)
	for ty := 1; ty <= 2; ty++ {
		tr, err := h2.TaggedJob(ty)
		r.tagged(fmt.Sprintf("tagh2-tagged%d", ty), tr, err)
	}
	cr, err := h2.ClassResponses()
	if err != nil {
		panic(err)
	}
	for i, c := range cr {
		r.fields(fmt.Sprintf("tagh2-class%d", i+1), c)
	}

	for i, sz := range [][3]int{{3, 4, 4}, {6, 10, 10}} {
		n, k1, k2 := sz[0], sz[1], sz[2]
		r.source(fmt.Sprintf("pepa-tagexp-%d", i), NewTAGExp(5, 10, 42, n, k1, k2).PEPASource())
		r.source(fmt.Sprintf("pepa-tagh2-%d", i), NewTAGH2(5, dist.H2ForTAG(0.1, 0.99, 100), 42, n, k1, k2).PEPASource())
		r.source(fmt.Sprintf("pepa-tagexpmmpp-%d", i), NewTAGExpMMPP(BurstyMMPP2(8, 2, 0.5), 10, 42, n, k1, k2).PEPASource())
	}

	// The baselines: JSQ, round robin and JSQ under MMPP-2 arrivals.
	h2tag := dist.H2ForTAG(0.1, 0.9, 10)
	sq := NewShortestQueue(11, dist.NewExponential(10), 6)
	two("jsq", sq.Build(), sq.Analyze)
	sqH2 := NewShortestQueue(11, h2tag, 8)
	two("jsq-h2", sqH2.Build(), sqH2.Analyze)
	sqMM := ShortestQueueMMPP{Arrivals: BurstyMMPP2(8, 1.9, 0.4), Mu: 10, K: 8}
	two("jsqmmpp", sqMM.Build(), sqMM.Analyze)
	sqMM0 := ShortestQueueMMPP{Arrivals: BurstyMMPP2(8, 2, 0.5), Mu: 10, K: 6}
	two("jsqmmpp-rate2zero", sqMM0.Build(), sqMM0.Analyze)
	rr := NewRoundRobinTwoNode(9, dist.NewExponential(10), 6)
	two("roundrobin", rr.Build(), rr.Analyze)
	rrH2 := NewRoundRobinTwoNode(8, h2tag, 7)
	two("roundrobin-h2", rrH2.Build(), rrH2.Analyze)

	for _, b := range []struct {
		inst    string
		respond func() (*ResponseDistribution, error)
	}{{"jsq-response", sq.ResponseDistribution}, {"roundrobin-response", rr.ResponseDistribution}} {
		rd, err := b.respond()
		if err != nil {
			panic(err)
		}
		r.float(b.inst, "Mean", rd.Mean())
		for _, q := range []float64{0.5, 0.99} {
			p, err := rd.Percentile(q)
			if err != nil {
				panic(err)
			}
			r.float(b.inst, fmt.Sprintf("p%g", 100*q), p)
		}
	}
	either, both, err := sq.ExpectedFillTime()
	if err != nil {
		panic(err)
	}
	r.float("jsq-fill", "EitherFull", either)
	r.float("jsq-fill", "BothFull", both)

	// PEPA-text corner cases: a one-place node 1, the printed Figure 3
	// semantics, one timer phase and an MMPP-2 source that also
	// arrives in its second phase.
	k1one := NewTAGExp(5, 10, 42, 3, 1, 3)
	r.source("pepa-tagexp-k1one", k1one.PEPASource())
	lit := NewTAGExp(5, 10, 42, 3, 4, 4)
	lit.LiteralFigure3 = true
	r.source("pepa-tagexp-literal", lit.PEPASource())
	k1one.LiteralFigure3 = true
	r.source("pepa-tagexp-literal-k1one", k1one.PEPASource())
	r.source("pepa-tagexp-n1", NewTAGExp(5, 10, 42, 1, 3, 3).PEPASource())
	r.source("pepa-tagh2-n1", NewTAGH2(5, dist.H2ForTAG(0.1, 0.99, 100), 42, 1, 3, 3).PEPASource())
	r.source("pepa-tagexpmmpp-n1", NewTAGExpMMPP(BurstyMMPP2(8, 1.5, 0.5), 10, 42, 1, 3, 3).PEPASource())
	return r.lines
}

// pinMatch compares one recorded value: hashes and integers exactly,
// floats to 1e-12 relative.
func pinMatch(got, want string) bool {
	if got == want {
		return true
	}
	if strings.ContainsAny(want, ".e") {
		g, err1 := strconv.ParseFloat(got, 64)
		w, err2 := strconv.ParseFloat(want, 64)
		if err1 == nil && err2 == nil {
			return math.Abs(g-w) <= 1e-12*math.Max(math.Abs(g), math.Abs(w))
		}
	}
	return false
}

func TestTAGVariantsPinned(t *testing.T) {
	got := pinRecord()
	f, err := os.Open(pinGolden)
	if err != nil {
		t.Fatalf("%v (recorded values follow)\n%s", err, strings.Join(got, "\n"))
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recorded %d values, golden has %d", len(got), len(want))
	}
	for i := range want {
		g, w := strings.Fields(got[i]), strings.Fields(want[i])
		if len(g) != 3 || len(w) != 3 || g[0] != w[0] || g[1] != w[1] || !pinMatch(g[2], w[2]) {
			t.Errorf("line %d: got %q, golden %q", i+1, got[i], want[i])
		}
	}
}
