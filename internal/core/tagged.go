package core

import (
	"fmt"

	"pepatags/internal/ctmc"
	"pepatags/internal/numeric"
)

// Tagged-job analysis: the full response-time distribution of an
// admitted job under TAG, not just the Little's-law mean. A tagged
// arrival is followed through an absorbing CTMC derived from the TAG
// product's own transitions (tagProduct.edges, product.go), so no node
// rule is written twice. A chain state is a product state in which the
// tagged job is the last job at its node: jobs behind it are
// irrelevant under FIFO, so arrivals are not tracked, and the node it
// has left is empty. The tagged job's own H2 branch is fixed;
// background jobs ahead of it follow the Figure 5 semantics (head
// branches sampled at alpha, node-2 residual branches at alpha'). The
// exponential model is the one-branch case.
//
// The initial state distribution follows PASTA: the tagged arrival
// observes the stationary system conditioned on node 1 having room.
//
// This quantifies the paper's informal claim that under TAG "for all
// but the largest jobs the delay is bounded", and exposes the gap
// between the paper's Little's-law W (which counts time accrued by
// jobs later dropped at node 2) and the true mean response time of
// successful jobs.

// TaggedResponse is the computed absorbing chain plus its initial
// distribution.
type TaggedResponse struct {
	chain       *ctmc.Chain
	init        []float64
	doneIdx     int
	lostIdx     int
	successProb float64
	meanCond    float64
}

// TaggedJob builds and solves the tagged-job chain.
func (m TAGExp) TaggedJob() (*TaggedResponse, error) {
	m.validate()
	if m.LiteralFigure3 {
		return nil, fmt.Errorf("core: tagged-job analysis implements the calibrated semantics only")
	}
	p := tagProduct{shape: m.Shape(), phases: m.N, rates: m.RateValues(), nodes: twoNode(m.N, m.K1, m.K2, false)}
	pi, states, err := p.solved()
	if err != nil {
		return nil, err
	}
	return p.taggedJob(1, pi, states)
}

// TaggedJob builds and solves the absorbing chain for a tagged job of
// the given branch (1 = short, 2 = long): the response time of an
// admitted job conditioned on its own branch. This disaggregates the
// paper's per-system means into the per-class view behind its
// fairness footnote: under TAG short jobs should see near-ideal
// response while long jobs absorb the restart penalty. The tagged
// job's node-2 residual service runs at its own rate, the exact
// disaggregation of the model's alpha' mixture. No program path calls
// it: it models that footnote's per-class response for H2 demand,
// pinned by the variants pin.
func (m TAGH2) TaggedJob(jobType int) (*TaggedResponse, error) {
	m.validate()
	if jobType != 1 && jobType != 2 {
		return nil, fmt.Errorf("core: jobType must be 1 or 2, got %d", jobType)
	}
	p := m.product()
	pi, states, err := p.solved()
	if err != nil {
		return nil, err
	}
	return p.taggedJob(jobType, pi, states)
}

// taggedJob derives and solves the absorbing chain of a tagged job of
// branch jobType. pi is the product's stationary distribution and
// states the states its derivation found. Each product edge out of a
// chain state is dropped (an arrival, which joins behind the tagged
// job), sent to DONE, LOST or the next node (the tagged job leaves its
// node), kept only for the tagged job's own branch at the bare slot
// rate (the tagged job reaches its server), or else kept at slot ×
// coeff. It reads the edges whatever the rates, so a tagged branch the
// system samples with probability zero still has a response.
func (p tagProduct) taggedJob(jobType int, pi []float64, states []prodState) (*TaggedResponse, error) {
	slots, coeffs := p.rates.slots(), p.rates.coeffs()
	b := ctmc.NewBuilder()
	done := b.State("DONE")
	lost := b.State("LOST")

	// visit interns the state with the tagged job last at node at; at
	// is the first busy node, so the product label names the chain
	// state. DONE and LOST are interned above, so every new state is
	// transient and joins the frontier: chain state i is frontier[i-2].
	type pending struct {
		at int
		s  prodState
	}
	var frontier []pending
	visit := func(at int, s prodState) int {
		n := b.NumStates()
		i := b.State(s.label())
		if i == n {
			frontier = append(frontier, pending{at, s})
		}
		return i
	}

	// PASTA initial distribution: the tagged arrival observes the
	// stationary system conditioned on its node having room. weights is
	// indexed by chain state.
	var admitted float64
	weights := make([]float64, 2)
	for i, s := range states {
		p.dispatch(s, func(j int, half bool) {
			w := pi[i]
			if half {
				w /= 2
			}
			admitted += w
			to := s.clone()
			to.nodes[j].q++
			if to.nodes[j].q == 1 && p.nodes[j].repeat == 0 {
				// The tagged job starts its race at once.
				to.nodes[j].branch, to.nodes[j].stage, to.nodes[j].phase = jobType, stageRace, p.phases-1
			}
			k := visit(j, to)
			if k == len(weights) {
				weights = append(weights, 0)
			}
			weights[k] += w
		})
	}
	if admitted <= 0 {
		return nil, fmt.Errorf("core: no admitting states")
	}

	for k := 0; k < len(frontier); k++ {
		at, s := frontier[k].at, frontier[k].s
		from := k + 2
		p.edges(s, func(to prodState, slot RateSlot, coeff Coeff, action string) {
			if action == ActArrival || action == ActLossArrival || action == actSwitch {
				return // arrivals join behind the tagged job
			}
			f, t := s.nodes[at], to.nodes[at]
			rate := slots[slot]
			switch {
			case t.q == 0: // the tagged job leaves its node
				switch action {
				case ActLossTransfer:
					b.Transition(from, lost, rate, action)
				case p.nodes[at].act.timeout:
					b.Transition(from, visit(at+1, to), rate, action)
				default:
					b.Transition(from, done, rate, action)
				}
				return
			case t.q == 1 && t.branch != 0 && (f.q > 1 || f.branch == 0):
				// The tagged job reaches its server and samples its own
				// branch.
				if t.branch != jobType {
					return
				}
			case coeff != CoeffOne:
				rate *= coeffs[coeff]
			}
			if rate != 0 { //vet:allow floatcmp: structural sparsity
				b.Transition(from, visit(at, to), rate, action)
			}
		})
	}
	chain := b.Build()
	init := make([]float64, chain.NumStates())
	for i, w := range weights {
		init[i] = w / admitted
	}
	probs, times, err := chain.ConditionalHittingTimes(
		func(s int) bool { return s == done },
		func(s int) bool { return s == lost },
	)
	if err != nil {
		return nil, err
	}
	tr := &TaggedResponse{chain: chain, init: init, doneIdx: done, lostIdx: lost}
	var ps, g numeric.Accumulator
	for i, w := range init {
		if w > 0 {
			ps.Add(w * probs[i])
			g.Add(w * probs[i] * times[i])
		}
	}
	tr.successProb = ps.Sum()
	if tr.successProb > 0 {
		tr.meanCond = g.Sum() / tr.successProb
	}
	return tr, nil
}

// States returns the absorbing-chain size.
func (tr *TaggedResponse) States() int { return tr.chain.NumStates() }

// SuccessProbability is the chance an admitted job eventually
// completes (rather than dying at a full node 2 after its timeout).
func (tr *TaggedResponse) SuccessProbability() float64 { return tr.successProb }

// MeanResponse is E[response time | admitted and successful].
func (tr *TaggedResponse) MeanResponse() float64 { return tr.meanCond }

// CDF returns P(response <= x | admitted and successful), computed by
// uniformised transient analysis of the absorbing chain.
func (tr *TaggedResponse) CDF(x float64) (float64, error) {
	if tr.successProb <= 0 {
		return 0, fmt.Errorf("core: success probability is zero")
	}
	pt, err := tr.chain.Transient(tr.init, x, 1e-10)
	if err != nil {
		return 0, err
	}
	return pt[tr.doneIdx] / tr.successProb, nil
}

// Percentile inverts the CDF by bisection on [0, hi]; hi is doubled
// until it covers the requested mass (up to 2^40 times the mean).
func (tr *TaggedResponse) Percentile(p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("core: percentile needs 0 < p < 1")
	}
	hi := tr.meanCond
	if hi <= 0 {
		hi = 1
	}
	for i := 0; i < 40; i++ {
		v, err := tr.CDF(hi)
		if err != nil {
			return 0, err
		}
		if v >= p {
			break
		}
		hi *= 2
	}
	lo := 0.0
	for i := 0; i < 60 && hi-lo > 1e-9*(1+hi); i++ {
		mid := (lo + hi) / 2
		v, err := tr.CDF(mid)
		if err != nil {
			return 0, err
		}
		if v < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// ClassResponse summarises the per-branch view of TAGH2.
type ClassResponse struct {
	Type         int     // 1 short, 2 long
	SuccessProb  float64 // P(complete | admitted, type)
	MeanResponse float64 // E[T | success, type]
	MeanSlowdown float64 // MeanResponse / (1/mu_type)
}

// ClassResponses computes both branches' conditional responses and
// slowdowns from one solve of the system chain.
func (m TAGH2) ClassResponses() ([2]ClassResponse, error) {
	m.validate()
	var out [2]ClassResponse
	p := m.product()
	pi, states, err := p.solved()
	if err != nil {
		return out, err
	}
	for ty := 1; ty <= 2; ty++ {
		tr, err := p.taggedJob(ty, pi, states)
		if err != nil {
			return out, err
		}
		out[ty-1] = ClassResponse{
			Type:         ty,
			SuccessProb:  tr.SuccessProbability(),
			MeanResponse: tr.MeanResponse(),
			MeanSlowdown: tr.MeanResponse() * m.Service.Mu[ty-1],
		}
	}
	return out, nil
}
