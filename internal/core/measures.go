package core

import (
	"fmt"

	"pepatags/internal/ctmc"
	"pepatags/internal/numeric"
	"pepatags/internal/queueing"
)

// Action labels shared by the models.
const (
	ActArrival       = "arrival"
	ActService1      = "service1"
	ActService2      = "service2"
	ActTimeout       = "timeout"       // successful transfer node1 -> node2
	ActRepeatService = "repeatservice" // start of residual service at node 2
	ActTick1         = "tick1"
	ActTick2         = "tick2"
	ActLossArrival   = "loss_arrival"  // dropped on arrival at node 1
	ActLossTransfer  = "loss_transfer" // dropped at node 2 after timing out
)

// Measures are the stationary performance measures of a two-node
// allocation system.
type Measures struct {
	States int // CTMC size

	L1, L2 float64 // mean jobs at node 1 / node 2
	L      float64 // total mean population

	X1, X2     float64 // completion rates at node 1 / node 2
	Throughput float64 // X1 + X2

	LossArrival  float64 // jobs/s dropped at node 1 on arrival
	LossTransfer float64 // jobs/s dropped at node 2 after a timed-out service
	Loss         float64 // total loss rate

	W float64 // mean response time, L / Throughput (Little's law)

	Util1, Util2 float64 // P(node busy)

	TimeoutRate float64 // jobs/s moved from node 1 to node 2 (TAG only)
}

// finish derives the aggregates from the per-node figures.
func (m *Measures) finish() {
	m.L = m.L1 + m.L2
	m.Throughput = m.X1 + m.X2
	m.Loss = m.LossArrival + m.LossTransfer
	m.W = queueing.Little(m.L, m.Throughput)
}

// System is any allocation model that can be solved for its stationary
// measures.
type System interface {
	// Analyze builds the model's CTMC, solves for the stationary
	// distribution and returns the measures.
	Analyze() (Measures, error)
}

// stateVectors is what the measures read of a chain's structure: each
// state's per-node queue length, each transition's source state, and
// the transitions of each action in emission order. A Skeleton records
// them while it derives its shape, so a solve of a cached shape reads
// its measures without a chain; a chain built elsewhere is indexed by
// chainVectors.
type stateVectors struct {
	queue  [][]int32          // queue[j][i]: jobs at node j in state i
	from   []int32            // source state of each transition
	action map[string][]int32 // the transitions of each action, in order
}

// indexEdges fills from and action for m transitions; edge returns
// transition k's source state and action. Each action's list is
// allocated at its final length.
func (v *stateVectors) indexEdges(m int, edge func(k int) (int32, string)) {
	v.from = make([]int32, m)
	count := make(map[string]int)
	for k := range v.from {
		from, act := edge(k)
		v.from[k] = from
		count[act]++
	}
	v.action = make(map[string][]int32, len(count))
	for act, n := range count {
		v.action[act] = make([]int32, 0, n)
	}
	for k := range v.from {
		_, act := edge(k)
		v.action[act] = append(v.action[act], int32(k))
	}
}

// chainVectors indexes the transitions of c, a chain whose states have
// the per-node queue lengths queue, and returns the vectors with each
// transition's rate.
func chainVectors(c *ctmc.Chain, queue [][]int32) (*stateVectors, []float64) {
	trs := c.Transitions()
	v := &stateVectors{queue: queue}
	v.indexEdges(len(trs), func(k int) (int32, string) { return int32(trs[k].From), trs[k].Action })
	rate := make([]float64, len(trs))
	for k, t := range trs {
		rate[k] = t.Rate
	}
	return v, rate
}

// twoNode reads the two-node measures at the stationary distribution
// pi, where rate[k] is transition k's rate. Each sum runs in the order
// ctmc.Chain's Expectation, ActionThroughput and Probability use, so
// the measures are bit-identical to reading them off the chain.
func (v *stateVectors) twoNode(pi, rate []float64) Measures {
	if len(pi) != len(v.queue[0]) || len(rate) != len(v.from) {
		panic(fmt.Sprintf("core: measures of %d states and %d transitions read at %d probabilities and %d rates",
			len(v.queue[0]), len(v.from), len(pi), len(rate)))
	}
	out := Measures{States: len(pi)}
	out.L1 = v.meanQueue(pi, 0)
	out.L2 = v.meanQueue(pi, 1)
	out.X1 = v.throughput(pi, rate, ActService1)
	out.X2 = v.throughput(pi, rate, ActService2)
	out.LossArrival = v.throughput(pi, rate, ActLossArrival)
	out.LossTransfer = v.throughput(pi, rate, ActLossTransfer)
	out.TimeoutRate = v.throughput(pi, rate, ActTimeout)
	out.Util1 = v.busy(pi, 0)
	out.Util2 = v.busy(pi, 1)
	out.finish()
	return out
}

// meanQueue is node j's mean queue length, Σ_i pi_i q_i over the
// states with a job there.
func (v *stateVectors) meanQueue(pi []float64, j int) float64 {
	var acc numeric.Accumulator
	for i, q := range v.queue[j] {
		if q != 0 {
			acc.Add(pi[i] * float64(q))
		}
	}
	return acc.Sum()
}

// throughput is the rate at which transitions of the action fire.
func (v *stateVectors) throughput(pi, rate []float64, action string) float64 {
	var acc numeric.Accumulator
	for _, k := range v.action[action] {
		acc.Add(pi[v.from[k]] * rate[k])
	}
	return acc.Sum()
}

// busy is the probability that node j holds a job.
func (v *stateVectors) busy(pi []float64, j int) float64 {
	var acc numeric.Accumulator
	for i, q := range v.queue[j] {
		if q > 0 {
			acc.Add(pi[i])
		}
	}
	return acc.Sum()
}
