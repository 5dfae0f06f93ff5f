package admission

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"pepatags/internal/policies"
)

func TestEstimatorDefaultsAndEstimate(t *testing.T) {
	e := NewEstimator(0, 0)
	p, s := e.Costs()
	if p != DefaultSeedPointSeconds || s != DefaultSeedShapeSeconds { //vet:allow floatcmp: seeds are copied verbatim
		t.Fatalf("default seeds not applied: point=%g shape=%g", p, s)
	}
	got := e.EstimateJob(10, 2)
	want := 10*DefaultSeedPointSeconds + 2*DefaultSeedShapeSeconds
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("EstimateJob = %g, want %g", got, want)
	}
}

// TestEstimatorConverges: feeding a steady workload pulls both EWMAs
// toward the true costs regardless of the seeds.
func TestEstimatorConverges(t *testing.T) {
	e := NewEstimator(1, 1) // wildly wrong seeds
	const truePoint, trueShape = 0.002, 0.08
	for i := 0; i < 200; i++ {
		// Alternate cache-hot sweeps (no fresh shapes) with fresh-model
		// jobs; the differing mixes make the two costs identifiable.
		if i%2 == 0 {
			e.ObserveJob(50, 0, time.Duration(50*truePoint*float64(time.Second)))
		} else {
			e.ObserveJob(50, 3, time.Duration((50*truePoint+3*trueShape)*float64(time.Second)))
		}
	}
	p, s := e.Costs()
	if math.Abs(p-truePoint) > truePoint/2 {
		t.Errorf("point cost = %g, want near %g", p, truePoint)
	}
	if math.Abs(s-trueShape) > trueShape/2 {
		t.Errorf("shape cost = %g, want near %g", s, trueShape)
	}
	// The combined estimate must be accurate even if the split between
	// the two components is not uniquely identified.
	est := e.EstimateJob(50, 3)
	want := 50*truePoint + 3*trueShape
	if math.Abs(est-want) > want*0.05 {
		t.Errorf("EstimateJob = %g, want %g within 5%%", est, want)
	}
}

func TestEstimatorIgnoresGarbage(t *testing.T) {
	e := NewEstimator(0.01, 0.1)
	p0, s0 := e.Costs()
	e.ObserveJob(0, 0, time.Second)   // no points
	e.ObserveJob(10, 0, -time.Second) // negative elapsed
	p, s := e.Costs()
	if p != p0 || s != s0 { //vet:allow floatcmp: no observation may change the state at all
		t.Fatalf("garbage observations changed estimates: %g,%g -> %g,%g", p0, s0, p, s)
	}
}

func TestThresholdAdmit(t *testing.T) {
	pol := Threshold{Bound: 5}
	if !pol.Admit(4.999, 100) {
		t.Error("threshold rejected below the bound")
	}
	if pol.Admit(5, 0.001) {
		t.Error("threshold admitted at the bound")
	}
}

// TestControllerAccounting: backlog grows on admit, shrinks on
// Finish/Abort, and rejections produce a Retry-After of at least a
// second.
func TestControllerAccounting(t *testing.T) {
	est := NewEstimator(1, 1) // 1 s per point: a 2-point job costs 2 s
	c := NewController(Threshold{Bound: 5}, est, 2)

	var handles []uint64
	admitted := 0
	for i := 0; i < 10; i++ {
		h, d := c.Submit(2, 0)
		if d.Admit {
			admitted++
			handles = append(handles, h)
		} else {
			if d.RetryAfter < time.Second {
				t.Errorf("reject %d: RetryAfter %v < 1s", i, d.RetryAfter)
			}
			if d.BacklogSeconds < 5 {
				t.Errorf("reject %d at backlog %g, below the bound", i, d.BacklogSeconds)
			}
		}
	}
	// Backlog after k admits is 2k; admit while backlog < 5 -> 3 jobs.
	if admitted != 3 {
		t.Fatalf("admitted %d jobs, want 3 under bound 5 at cost 2", admitted)
	}
	st := c.Stats()
	if st.Admitted != 3 || st.Rejected != 7 || st.OutstandingJobs != 3 {
		t.Fatalf("stats = %+v, want 3 admitted, 7 rejected, 3 outstanding", st)
	}
	if math.Abs(c.Backlog()-6) > 1e-12 {
		t.Fatalf("backlog = %g, want 6", c.Backlog())
	}

	c.Finish(handles[0], 2, 0, 2*time.Second)
	c.Abort(handles[1])
	if math.Abs(c.Backlog()-2) > 1e-12 {
		t.Fatalf("backlog after finish+abort = %g, want 2", c.Backlog())
	}
	st = c.Stats()
	if st.ObservedJobs != 1 || st.OutstandingJobs != 1 {
		t.Fatalf("stats after retire = %+v", st)
	}
	// Unknown handles are ignored.
	c.Finish(9999, 1, 0, time.Second)
	c.Abort(9999)
	if math.Abs(c.Backlog()-2) > 1e-12 {
		t.Fatalf("unknown handle changed backlog: %g", c.Backlog())
	}
}

func TestControllerDefaults(t *testing.T) {
	c := NewController(nil, nil, 0)
	h, d := c.Submit(1, 0)
	if !d.Admit || h == 0 {
		t.Fatal("nil policy must admit everything")
	}
	if got := c.Stats().Policy; got != "always-admit" {
		t.Fatalf("policy = %q", got)
	}
}

// TestRejectRateMatchesAdmissionModel is the implementation-vs-model
// cross-check the conform battery makes at the chain level, repeated
// here at the code level: a discrete-event simulation of Poisson
// arrivals through the Controller with a calibrated estimator must
// reproduce the blocking probability of the analyzable counterpart,
// policies.AdmissionQueue with Queue = Bound/E[job] - Servers places.
//
// Setup: c=2 workers, mean job 1 s, bound 5 s => admit while fewer
// than 5 jobs are outstanding, i.e. an M/M/2/5 loss system.
func TestRejectRateMatchesAdmissionModel(t *testing.T) {
	const (
		lambda   = 6.0
		mu       = 1.0
		servers  = 2
		bound    = 5.0
		arrivals = 20000
	)
	meanJob := 1 / mu

	model := policies.AdmissionQueue{Lambda: lambda, Mu: mu, Servers: servers, Queue: int(bound/meanJob) - servers}
	pred, err := model.Measures()
	if err != nil {
		t.Fatalf("model: %v", err)
	}

	est := NewEstimator(meanJob, 1) // one point per job at exactly the mean cost
	ctrl := NewController(Threshold{Bound: bound}, est, servers)
	rng := rand.New(rand.NewPCG(11, 13))
	exp := func(rate float64) float64 { return rng.ExpFloat64() / rate }

	// Event-driven M/M/c/K: busy holds departure times (len <= servers),
	// fifo holds admitted-but-waiting handles.
	type running struct {
		at     float64
		handle uint64
	}
	var busy []running
	var fifo []uint64
	now, rejected := 0.0, 0

	depart := func(until float64) {
		for len(busy) > 0 {
			// Find the earliest departure.
			min := 0
			for i, b := range busy {
				if b.at < busy[min].at {
					min = i
				}
			}
			if busy[min].at > until {
				return
			}
			d := busy[min]
			busy = append(busy[:min], busy[min+1:]...)
			// Feed the mean back, not the sample: the estimator is held
			// calibrated so the work threshold is exactly a job-count
			// threshold and the M/M/c/K correspondence is exact.
			ctrl.Finish(d.handle, 1, 0, time.Duration(meanJob*float64(time.Second)))
			if len(fifo) > 0 {
				h := fifo[0]
				fifo = fifo[1:]
				busy = append(busy, running{at: d.at + exp(mu), handle: h})
			}
		}
	}

	for i := 0; i < arrivals; i++ {
		now += exp(lambda)
		depart(now)
		h, d := ctrl.Submit(1, 0)
		if !d.Admit {
			rejected++
			continue
		}
		if len(busy) < servers {
			busy = append(busy, running{at: now + exp(mu), handle: h})
		} else {
			fifo = append(fifo, h)
		}
	}

	got := float64(rejected) / arrivals
	if math.Abs(got-pred.RejectProbability) > 0.03 {
		t.Errorf("empirical reject rate %.4f, model predicts %.4f", got, pred.RejectProbability)
	}
	if st := ctrl.Stats(); int(st.Rejected) != rejected {
		t.Errorf("controller counted %d rejects, simulation counted %d", st.Rejected, rejected)
	}
}
