package policies

import (
	"fmt"
	"math/rand/v2"

	"pepatags/internal/sim"
)

// FirstNode routes every job to node 0; combined with per-node kill
// timers this is the TAG policy.
type FirstNode struct{}

func (FirstNode) Route(*sim.System, *sim.Job) int { return 0 }
func (FirstNode) String() string                  { return "tag/first-node" }

// Random routes to node i with probability Weights[i].
type Random struct {
	Weights []float64
}

// NewUniformRandom splits arrivals evenly over n nodes.
func NewUniformRandom(n int) Random {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return Random{Weights: w}
}

func (r Random) Route(s *sim.System, _ *sim.Job) int {
	u := s.RNG().Float64()
	var cum float64
	for i, w := range r.Weights {
		cum += w
		if u <= cum {
			return i
		}
	}
	return len(r.Weights) - 1
}
func (r Random) String() string { return fmt.Sprintf("random%v", r.Weights) }

// RoundRobin cycles through the nodes.
type RoundRobin struct {
	next int
}

func (r *RoundRobin) Route(s *sim.System, _ *sim.Job) int {
	i := r.next % s.NumNodes()
	r.next++
	return i
}
func (r *RoundRobin) String() string { return "round-robin" }

// ShortestQueue routes to the node with the fewest jobs; ties are
// broken uniformly at random (the Appendix B semantics for the
// two-node case).
type ShortestQueue struct{}

// Route counts the shortest queues in one pass and, on a tie, draws
// one of them and finds it in a second pass, so no list of candidates
// is built and the call allocates nothing.
func (ShortestQueue) Route(s *sim.System, _ *sim.Job) int {
	best, bestLen, ties := 0, s.QueueLength(0), 1
	for i := 1; i < s.NumNodes(); i++ {
		l := s.QueueLength(i)
		switch {
		case l < bestLen:
			best, bestLen, ties = i, l, 1
		case l == bestLen:
			ties++
		}
	}
	if ties == 1 {
		return best
	}
	// best is the first shortest queue; the k-th tie follows it.
	k := s.RNG().IntN(ties)
	for i := best; ; i++ {
		if s.QueueLength(i) == bestLen {
			if k == 0 {
				return i
			}
			k--
		}
	}
}
func (ShortestQueue) String() string { return "shortest-queue" }

// PowerOfD samples D distinct nodes uniformly at random and routes to
// the shortest queue among them, ties broken uniformly — the
// power-of-d-choices policy of Mitzenmacher and, for heterogeneous
// clusters, Mukhopadhyay et al. With D >= the node count it degenerates
// to ShortestQueue (every node is sampled), which is the identity the
// conform oracle exploits at N=2, D=2.
type PowerOfD struct {
	D int

	// Scratch for the virtual Fisher-Yates shuffle: an association list
	// of displaced entries (position -> value, at most 2D of them per
	// call), reused across calls so Route stays O(D) and allocation-free
	// at any cluster size. A policy instance is therefore stateful and
	// must not be shared across concurrent simulations — replication
	// batches get one per replication via ReplicationConfig.NewPolicy.
	keys, vals, best []int
}

// NewPowerOfD validates and returns the policy.
func NewPowerOfD(d int) *PowerOfD {
	if d < 1 {
		panic("policies: PowerOfD needs d >= 1")
	}
	return &PowerOfD{D: d}
}

// at reads position j of the virtually-shuffled index array, which
// holds j wherever no swap has touched it.
func (p *PowerOfD) at(j int) int {
	for i, k := range p.keys {
		if k == j {
			return p.vals[i]
		}
	}
	return j
}

func (p *PowerOfD) set(j, v int) {
	for i, k := range p.keys {
		if k == j {
			p.vals[i] = v
			return
		}
	}
	p.keys = append(p.keys, j)
	p.vals = append(p.vals, v)
}

func (p *PowerOfD) Route(s *sim.System, _ *sim.Job) int {
	n := s.NumNodes()
	d := p.D
	if d > n {
		d = n
	}
	// Partial Fisher-Yates over the node indices: the first d entries
	// become a uniform random d-subset, drawn without replacement. The
	// array 0..n-1 is never materialised — only displaced entries are
	// stored — so the draw sequence and selected subset are exactly
	// those of a literal shuffle, at O(d) cost.
	rng := s.RNG()
	p.keys, p.vals, p.best = p.keys[:0], p.vals[:0], p.best[:0]
	bestLen := 0
	for i := 0; i < d; i++ {
		j := i + rng.IntN(n-i)
		vi, vj := p.at(i), p.at(j)
		p.set(i, vj)
		p.set(j, vi)
		l := s.QueueLength(vj)
		switch {
		case i == 0 || l < bestLen:
			p.best = append(p.best[:0], vj)
			bestLen = l
		case l == bestLen:
			p.best = append(p.best, vj)
		}
	}
	if len(p.best) == 1 {
		return p.best[0]
	}
	return p.best[rng.IntN(len(p.best))]
}
func (p *PowerOfD) String() string { return fmt.Sprintf("power-of-%d", p.D) }

// LeastWorkLeft routes to the node with the least estimated unfinished
// work. It needs job-size knowledge, so it serves as an oracle upper
// bound rather than a deployable policy.
type LeastWorkLeft struct{}

func (LeastWorkLeft) Route(s *sim.System, _ *sim.Job) int {
	best, bw := 0, s.WorkLeft(0)
	for i := 1; i < s.NumNodes(); i++ {
		if w := s.WorkLeft(i); w < bw {
			best, bw = i, w
		}
	}
	return best
}
func (LeastWorkLeft) String() string { return "least-work-left" }

// SizeThreshold routes by exact job size against per-node thresholds —
// the clairvoyant SITA-style policy TAG approximates without size
// knowledge. Thresholds[i] is the largest size accepted by node i;
// the last node takes everything else.
type SizeThreshold struct {
	Thresholds []float64
}

func (p SizeThreshold) Route(s *sim.System, j *sim.Job) int {
	for i, th := range p.Thresholds {
		if j.Size <= th {
			return i
		}
	}
	return s.NumNodes() - 1
}
func (p SizeThreshold) String() string { return fmt.Sprintf("size-threshold%v", p.Thresholds) }

// DynamicTAG is the paper's Section 7 suggestion: route to node 0 but
// let callers adapt the timeout to the backlog by reading queue state.
// It is identical to FirstNode for routing; the adaptivity lives in a
// TimeoutFunc closure over the system, constructed by AdaptiveTimeout.
type DynamicTAG struct{}

func (DynamicTAG) Route(*sim.System, *sim.Job) int { return 0 }
func (DynamicTAG) String() string                  { return "dynamic-tag" }

// AdaptiveTimeout builds a timeout sampler that scales a base timeout
// by the current backlog: with q jobs waiting the timeout becomes
// base / (1 + scale*q), shortening cut-offs under burst pressure.
// The backlog getter is typically bound to sys.QueueLength(0) after
// sim.NewSystem returns (Go closures make the late binding safe: the
// sampler only runs during Run).
func AdaptiveTimeout(backlog func() int, base, scale float64) func(*rand.Rand) float64 {
	return func(*rand.Rand) float64 {
		return base / (1 + scale*float64(backlog()))
	}
}

// ConstantTimeout returns the deterministic timeout sampler used by
// the real TAG algorithm.
func ConstantTimeout(tau float64) func(*rand.Rand) float64 {
	return func(*rand.Rand) float64 { return tau }
}

// ErlangTimeout returns an Erlang(n, rate) timeout sampler, matching
// the PEPA model's approximation of the deterministic timer.
func ErlangTimeout(n int, rate float64) func(*rand.Rand) float64 {
	return func(rng *rand.Rand) float64 {
		var sum float64
		for i := 0; i < n; i++ {
			sum += rng.ExpFloat64()
		}
		return sum / rate
	}
}
