package policies

import (
	"fmt"

	"pepatags/internal/ctmc"
	"pepatags/internal/queueing"
)

// AdmissionQueue is the threshold admission policy of Mazzucco &
// Mitrani, "Allocation and Admission Policies for Service Streams",
// as an analyzable Markov model: Servers identical workers each
// completing jobs at rate Mu, Poisson arrivals at rate Lambda, and a
// hard admission bound — a job is admitted while fewer than
// Servers + Queue jobs are in the system and rejected otherwise.
// Rejection is immediate and permanent (no retries inside the model);
// admitted jobs are never lost.
//
// The state is the number of jobs present, so the model is the
// birth–death chain M/M/c/K with c = Servers and K = Servers + Queue.
// It is also precisely the overload policy the pepad daemon runs
// (internal/serve/admission), with the daemon's work-seconds bound
// mapped to Queue places by dividing through the mean job size — the
// conform battery and the serve tests cross-validate the
// implementation against this model's steady-state predictions.
type AdmissionQueue struct {
	Lambda, Mu float64 // arrival rate; per-server service rate
	Servers    int     // parallel workers (c)
	Queue      int     // admission bound beyond the servers (K - c)
}

// AdmissionMeasures are the steady-state predictions of the model.
type AdmissionMeasures struct {
	States int // K + 1 = Servers + Queue + 1

	// RejectProbability is the stationary probability that an arriving
	// job finds the system at the admission bound (PASTA: the blocking
	// probability pi_K).
	RejectProbability float64
	// Throughput is the admitted-job completion rate
	// Lambda (1 - RejectProbability).
	Throughput float64
	// RejectRate is Lambda * RejectProbability.
	RejectRate float64
	// MeanJobs is the stationary mean number of jobs present.
	MeanJobs float64
	// MeanResponse is the mean sojourn time of an admitted job, by
	// Little's law over the admitted flow.
	MeanResponse float64
	// Utilization is the mean busy fraction of a server.
	Utilization float64
}

func (a AdmissionQueue) validate() error {
	if a.Lambda <= 0 || a.Mu <= 0 || a.Servers < 1 || a.Queue < 0 {
		return fmt.Errorf("policies: invalid admission queue lambda=%g mu=%g servers=%d queue=%d",
			a.Lambda, a.Mu, a.Servers, a.Queue)
	}
	return nil
}

// mmck maps the policy onto its birth–death closed form.
func (a AdmissionQueue) mmck() queueing.MMcK {
	return queueing.NewMMcK(a.Lambda, a.Mu, a.Servers, a.Servers+a.Queue)
}

// Measures evaluates the closed-form stationary measures.
func (a AdmissionQueue) Measures() (AdmissionMeasures, error) {
	if err := a.validate(); err != nil {
		return AdmissionMeasures{}, err
	}
	q := a.mmck()
	pRej := q.LossProbability()
	x := q.Throughput()
	l := q.MeanQueueLength()
	return AdmissionMeasures{
		States:            a.Servers + a.Queue + 1,
		RejectProbability: pRej,
		Throughput:        x,
		RejectRate:        a.Lambda * pRej,
		MeanJobs:          l,
		MeanResponse:      queueing.Little(l, x),
		Utilization:       q.Utilization(),
	}, nil
}

// BuildChain constructs the policy's CTMC explicitly, with "arrival",
// "service" and "reject" action labels, so the conform oracles can
// cross-check the closed form against a general-purpose steady-state
// solve (and the reject flow against ActionThroughput).
func (a AdmissionQueue) BuildChain() (*ctmc.Chain, error) {
	if err := a.validate(); err != nil {
		return nil, err
	}
	k := a.Servers + a.Queue
	b := ctmc.NewBuilder()
	for n := 0; n <= k; n++ {
		b.State(fmt.Sprintf("N%d", n))
	}
	for n := 0; n <= k; n++ {
		if n < k {
			b.Transition(n, n+1, a.Lambda, "arrival")
		} else {
			// The rejected stream leaves the state unchanged; the
			// self-loop carries the label so the reject rate is a
			// measurable action throughput, exactly like the TAG
			// models' loss accounting.
			b.Transition(n, n, a.Lambda, "reject")
		}
		if n > 0 {
			servers := n
			if servers > a.Servers {
				servers = a.Servers
			}
			b.Transition(n, n-1, float64(servers)*a.Mu, "service")
		}
	}
	return b.Build(), nil
}
