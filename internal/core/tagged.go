package core

import (
	"fmt"

	"pepatags/internal/ctmc"
	"pepatags/internal/numeric"
)

// Tagged-job analysis: the full response-time distribution of an
// admitted job under TAG, not just the Little's-law mean. A tagged
// arrival is followed through an absorbing CTMC whose state tracks
// everything that can still affect it: its position and the timer at
// node 1, and the node-2 configuration (which decides whether a
// timed-out tagged job is admitted or lost, and how long node 2 takes
// once the tagged job is there). Jobs behind the tagged job are
// irrelevant under FIFO and are not tracked.
//
// The initial state distribution follows PASTA: the tagged arrival
// observes the stationary system conditioned on node 1 having room.
//
// This quantifies the paper's informal claim that under TAG "for all
// but the largest jobs the delay is bounded", and exposes the gap
// between the paper's Little's-law W (which counts time accrued by
// jobs later dropped at node 2) and the true mean response time of
// successful jobs.

// taggedState is the absorbing-chain state. The tagged job's own H2
// branch is known throughout; background jobs ahead of it follow the
// Figure 5 semantics (head branches sampled at alpha, node-2 residual
// branches at alpha'). The exponential model is the one-branch case
// (alpha = alpha' = 1).
type taggedState struct {
	loc int // 0 = at node 1, 1 = at node 2, 2 = done, 3 = lost

	// Node 1 (loc 0): the tagged position (1 = in service), the head's
	// branch (the tagged job's own when pos1 == 1) and the timer.
	pos1, headTy, tm1 int

	// Node 2: the queue length (loc 0) or the tagged position (loc 1),
	// the head's stage (0 repeat period, 1/2 residual branch) and its
	// timer (frozen at top while the head serves).
	q2, sv2, tm2 int
}

func (s taggedState) label() string {
	switch s.loc {
	case 2:
		return "DONE"
	case 3:
		return "LOST"
	case 0:
		return fmt.Sprintf("N1.p%d.h%d.t%d|%d.%d.%d", s.pos1, s.headTy, s.tm1, s.q2, s.sv2, s.tm2)
	default:
		return fmt.Sprintf("N2.p%d.%d.t%d", s.q2, s.sv2, s.tm2)
	}
}

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

// taggedSystem is the two-node system a tagged job traverses.
type taggedSystem struct {
	k1, k2, top int        // capacities and the timer reset phase (N-1)
	t           float64    // timer phase rate
	mu          [3]float64 // service rate by branch (1 short, 2 long)
	alpha, ap   float64    // head branch probabilities at node 1 and node 2
}

// TaggedJob builds and solves the tagged-job chain.
func (m TAGExp) TaggedJob() (*TaggedResponse, error) {
	m.validate()
	if m.LiteralFigure3 {
		return nil, fmt.Errorf("core: tagged-job analysis implements the calibrated semantics only")
	}
	c := m.Build()
	pi, err := c.SteadyState()
	if err != nil {
		return nil, err
	}
	states := m.stateInfo(c)
	bg := make([]taggedState, len(states))
	for i, s := range states {
		bg[i] = taggedState{pos1: s.q1, tm1: s.tm1, q2: s.q2, tm2: s.tm2}
		if s.q1 > 0 {
			bg[i].headTy = 1
		}
		if s.sv2 {
			bg[i].sv2 = 1
		}
	}
	sys := taggedSystem{k1: m.K1, k2: m.K2, top: m.phases() - 1, t: m.T, mu: [3]float64{0, m.Mu, m.Mu}, alpha: 1, ap: 1}
	return sys.taggedJob(1, pi, bg)
}

// TaggedJob builds and solves the absorbing chain for a tagged job of
// the given branch (1 = short, 2 = long): the response time of an
// admitted job conditioned on its own branch. This disaggregates the
// paper's per-system means into the per-class view behind its fairness
// footnote: under TAG short jobs should see near-ideal response while
// long jobs absorb the restart penalty. The tagged job's node-2
// residual service runs at its own rate, the exact disaggregation of
// the model's alpha' mixture.
func (m TAGH2) TaggedJob(jobType int) (*TaggedResponse, error) {
	m.validate()
	if jobType != 1 && jobType != 2 {
		return nil, fmt.Errorf("core: jobType must be 1 or 2, got %d", jobType)
	}
	p := m.product()
	pi, states, err := p.solve(p.build())
	if err != nil {
		return nil, err
	}
	bg := make([]taggedState, len(states))
	for i, s := range states {
		n1, n2 := s.nodes[0], s.nodes[1]
		bg[i] = taggedState{pos1: n1.q, headTy: n1.branch, tm1: n1.phase, q2: n2.q, sv2: n2.branch, tm2: n2.phase}
	}
	sys := taggedSystem{k1: m.K1, k2: m.K2, top: m.N - 1, t: m.T,
		mu: [3]float64{0, m.Service.Mu[0], m.Service.Mu[1]}, alpha: m.Service.Alpha[0], ap: m.AlphaPrime()}
	return sys.taggedJob(jobType, pi, bg)
}

// taggedJob derives and solves the absorbing chain of a tagged job of
// branch jobType. pi is the stationary system distribution and bg[i]
// system state i in node-1-phase form, with pos1 its node-1 queue
// length.
func (m taggedSystem) taggedJob(jobType int, pi []float64, bg []taggedState) (*TaggedResponse, error) {
	top := m.top
	b := ctmc.NewBuilder()
	done := b.State(taggedState{loc: 2}.label())
	lost := b.State(taggedState{loc: 3}.label())

	// visit interns a state; DONE and LOST are interned above, so every
	// new state is transient and joins the frontier.
	var frontier []taggedState
	visit := func(s taggedState) int {
		l := s.label()
		if !b.HasState(l) {
			frontier = append(frontier, s)
		}
		return b.State(l)
	}

	// PASTA initial distribution: the tagged arrival observes the
	// stationary system conditioned on node 1 having room.
	var admitted float64
	weights := map[int]float64{}
	for i, st := range bg {
		if st.pos1 >= m.k1 {
			continue
		}
		admitted += pi[i]
		ts := st
		ts.pos1++
		if st.pos1 == 0 {
			ts.headTy = jobType // the tagged job starts service at once
			ts.tm1 = top
		}
		weights[visit(ts)] += pi[i]
	}
	if admitted <= 0 {
		return nil, fmt.Errorf("core: no admitting states")
	}

	type branch struct {
		ty int
		p  float64
	}
	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		from := b.State(s.label())
		emit := func(to taggedState, rate float64) {
			if rate <= 0 {
				return
			}
			b.Transition(from, visit(to), rate, "move")
		}
		// branches lists the head branches a job can start with: the
		// tagged job's own, or background branches at probability p.
		branches := func(tagged bool, p float64) []branch {
			if tagged {
				return []branch{{jobType, 1}}
			}
			return []branch{{1, p}, {2, 1 - p}}
		}
		// departAhead removes a job ahead of the tagged one at node 1;
		// the next job reaches the server.
		departAhead := func(to taggedState, rate float64) {
			to.pos1 = s.pos1 - 1
			to.tm1 = top
			for _, br := range branches(to.pos1 == 1, m.alpha) {
				to.headTy = br.ty
				emit(to, rate*br.p)
			}
		}
		// node2 evolves node 2's head: the repeat clock, the residual
		// branch sampled at its end, and the residual service.
		node2 := func(tagged bool) {
			switch {
			case s.sv2 == 0 && s.tm2 > 0:
				to := s
				to.tm2--
				emit(to, m.t)
			case s.sv2 == 0:
				for _, br := range branches(tagged, m.ap) {
					to := s
					to.sv2 = br.ty
					to.tm2 = top
					emit(to, m.t*br.p)
				}
			case tagged:
				emit(taggedState{loc: 2}, m.mu[s.sv2])
			default:
				to := s
				to.q2--
				to.sv2 = 0
				to.tm2 = top
				emit(to, m.mu[s.sv2])
			}
		}

		if s.loc == 1 {
			node2(s.q2 == 1)
			continue
		}
		// Head service (the tagged job's own when pos1 == 1).
		if s.pos1 == 1 {
			emit(taggedState{loc: 2}, m.mu[s.headTy])
		} else {
			departAhead(s, m.mu[s.headTy])
		}
		switch {
		case s.tm1 > 0:
			to := s
			to.tm1--
			emit(to, m.t)
		case s.pos1 > 1:
			// A job ahead times out and restarts at node 2 (or is lost).
			to := s
			if s.q2 < m.k2 {
				to.q2++
			}
			departAhead(to, m.t)
		case s.q2 < m.k2:
			// The tagged job times out and restarts at node 2.
			emit(taggedState{loc: 1, q2: s.q2 + 1, sv2: s.sv2, tm2: s.tm2}, m.t)
		default:
			emit(taggedState{loc: 3}, m.t)
		}
		if s.q2 > 0 {
			node2(false)
		}
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
	var p, g numeric.Accumulator
	for i, w := range init {
		if w > 0 {
			p.Add(w * probs[i])
			g.Add(w * probs[i] * times[i])
		}
	}
	tr.successProb = p.Sum()
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
// slowdowns.
func (m TAGH2) ClassResponses() ([2]ClassResponse, error) {
	var out [2]ClassResponse
	for ty := 1; ty <= 2; ty++ {
		tr, err := m.TaggedJob(ty)
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
