package core

import (
	"math"
	"testing"

	"pepatags/internal/dist"
)

func TestTAGH2TaggedDegenerateMatchesExp(t *testing.T) {
	// alpha = 1: the H2 tagged analysis must coincide with the
	// exponential one.
	h := dist.NewH2(1, 10, 3)
	mh := NewTAGH2(9, h, 28, 4, 6, 6)
	me := NewTAGExp(9, 10, 28, 4, 6, 6)
	trh, err := mh.TaggedJob(1)
	if err != nil {
		t.Fatal(err)
	}
	tre, err := me.TaggedJob()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(trh.MeanResponse()-tre.MeanResponse()) > 1e-8 {
		t.Fatalf("degenerate H2 tagged mean %v vs exp %v", trh.MeanResponse(), tre.MeanResponse())
	}
	if math.Abs(trh.SuccessProbability()-tre.SuccessProbability()) > 1e-10 {
		t.Fatalf("success probs differ: %v vs %v", trh.SuccessProbability(), tre.SuccessProbability())
	}
}

func TestTAGH2TaggedZeroProbabilityClass(t *testing.T) {
	// At alpha = 1 the system never samples a long job, but a tagged
	// long job still has a response: the limit as alpha tends to 1.
	at := func(alpha float64) *TaggedResponse {
		tr, err := NewTAGH2(9, dist.NewH2(alpha, 10, 3), 28, 4, 6, 6).TaggedJob(2)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	got, near := at(1), at(1-1e-9)
	if math.Abs(got.MeanResponse()-near.MeanResponse()) > 1e-6*near.MeanResponse() {
		t.Fatalf("alpha=1 long-job mean %v, alpha=1-1e-9 %v", got.MeanResponse(), near.MeanResponse())
	}
	if math.Abs(got.SuccessProbability()-near.SuccessProbability()) > 1e-6 {
		t.Fatalf("alpha=1 long-job success %v, alpha=1-1e-9 %v", got.SuccessProbability(), near.SuccessProbability())
	}
}

func TestTAGH2TaggedMixtureFlowIdentity(t *testing.T) {
	// alpha-weighted success probabilities must reproduce the system's
	// completion fraction of admitted jobs.
	h := dist.H2ForTAG(0.2, 0.9, 10)
	m := NewTAGH2(8, h, 24, 4, 6, 6)
	meas, err := m.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	tr1, err := m.TaggedJob(1)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := m.TaggedJob(2)
	if err != nil {
		t.Fatal(err)
	}
	alpha := h.Alpha[0]
	mixed := alpha*tr1.SuccessProbability() + (1-alpha)*tr2.SuccessProbability()
	want := meas.Throughput / (m.Lambda - meas.LossArrival)
	if math.Abs(mixed-want) > 1e-6 {
		t.Fatalf("mixture success %v vs flow identity %v", mixed, want)
	}
}

func TestTAGH2ClassResponsesFairnessShape(t *testing.T) {
	// The TAGS fairness story: short jobs see low absolute response;
	// long jobs pay the restart penalty in absolute time but their
	// slowdown stays moderate because their size is large.
	h := dist.H2ForTAG(0.1, 0.95, 20)
	m := NewTAGH2(8, h, 30, 4, 8, 8)
	cr, err := m.ClassResponses()
	if err != nil {
		t.Fatal(err)
	}
	short, long := cr[0], cr[1]
	if !(short.MeanResponse < long.MeanResponse) {
		t.Fatalf("short response %v should undercut long %v", short.MeanResponse, long.MeanResponse)
	}
	if short.SuccessProb <= 0.9 {
		t.Fatalf("short jobs should almost always complete: %v", short.SuccessProb)
	}
	// Long jobs are the ones at risk of dying at node 2.
	if long.SuccessProb > short.SuccessProb {
		t.Fatalf("long success %v should not exceed short %v", long.SuccessProb, short.SuccessProb)
	}
	if short.MeanSlowdown <= 0 || long.MeanSlowdown <= 0 {
		t.Fatalf("slowdowns must be positive: %+v", cr)
	}
	// Long jobs necessarily pass through both nodes (timeout + repeat +
	// residual), so their slowdown includes at least the doubled work.
	if long.MeanSlowdown < 1 {
		t.Fatalf("long slowdown %v must exceed 1", long.MeanSlowdown)
	}
}

func TestTAGH2ClassResponsesMatchTaggedJob(t *testing.T) {
	// ClassResponses solves the system chain once for both classes; its
	// figures must be exactly those of the per-class TaggedJob calls.
	m := NewTAGH2(9, dist.H2ForTAG(0.1, 0.95, 20), 24, 4, 6, 6)
	cr, err := m.ClassResponses()
	if err != nil {
		t.Fatal(err)
	}
	for ty := 1; ty <= 2; ty++ {
		tr, err := m.TaggedJob(ty)
		if err != nil {
			t.Fatal(err)
		}
		want := ClassResponse{
			Type:         ty,
			SuccessProb:  tr.SuccessProbability(),
			MeanResponse: tr.MeanResponse(),
			MeanSlowdown: tr.MeanResponse() * m.Service.Mu[ty-1],
		}
		if cr[ty-1] != want {
			t.Errorf("class %d: ClassResponses %+v, TaggedJob %+v", ty, cr[ty-1], want)
		}
	}
}

func TestTAGH2TaggedValidation(t *testing.T) {
	h := dist.H2ForTAG(0.1, 0.9, 10)
	m := NewTAGH2(5, h, 12, 2, 3, 3)
	if _, err := m.TaggedJob(0); err == nil {
		t.Fatal("jobType 0 must fail")
	}
	if _, err := m.TaggedJob(3); err == nil {
		t.Fatal("jobType 3 must fail")
	}
}
