package workload

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"strconv"

	"pepatags/internal/dist"
)

// ArrivalProcess produces successive interarrival times.
type ArrivalProcess interface {
	// NextInterarrival draws the time until the next arrival.
	NextInterarrival(rng *rand.Rand) float64
	// MeanRate returns the long-run arrival rate.
	MeanRate() float64
	String() string
}

// Poisson is a Poisson arrival process with the given rate.
type Poisson struct {
	Rate float64
}

// NewPoisson validates and returns the process.
func NewPoisson(rate float64) Poisson {
	if rate <= 0 {
		panic("workload: Poisson rate must be positive")
	}
	return Poisson{Rate: rate}
}

func (p Poisson) NextInterarrival(rng *rand.Rand) float64 { return rng.ExpFloat64() / p.Rate }
func (p Poisson) MeanRate() float64                       { return p.Rate }
func (p Poisson) String() string                          { return fmt.Sprintf("Poisson(%g)", p.Rate) }

// MMPP2 is a two-phase Markov-modulated Poisson process: arrivals at
// Rate1 while in phase 1 and Rate2 in phase 2; the phase flips at
// Switch1 (1->2) and Switch2 (2->1). With Rate1 >> Rate2 it produces
// the bursty traffic the paper's Section 7 conjectures hurts TAG.
type MMPP2 struct {
	Rate1, Rate2     float64
	Switch1, Switch2 float64

	phase2 bool // current modulating phase
}

// NewMMPP2 validates and returns the process.
func NewMMPP2(rate1, rate2, switch1, switch2 float64) *MMPP2 {
	if rate1 <= 0 || rate2 < 0 || switch1 <= 0 || switch2 <= 0 {
		panic("workload: invalid MMPP2 parameters")
	}
	return &MMPP2{Rate1: rate1, Rate2: rate2, Switch1: switch1, Switch2: switch2}
}

// MeanRate is the stationary-phase-weighted arrival rate.
func (m *MMPP2) MeanRate() float64 {
	// Stationary phase probabilities: pi1 = s2/(s1+s2).
	p1 := m.Switch2 / (m.Switch1 + m.Switch2)
	return p1*m.Rate1 + (1-p1)*m.Rate2
}

// NextInterarrival simulates the modulated process until the next
// arrival, flipping phases as needed.
func (m *MMPP2) NextInterarrival(rng *rand.Rand) float64 {
	var elapsed float64
	for {
		rate, sw := m.Rate1, m.Switch1
		if m.phase2 {
			rate, sw = m.Rate2, m.Switch2
		}
		tSwitch := rng.ExpFloat64() / sw
		if rate > 0 {
			tArr := rng.ExpFloat64() / rate
			if tArr < tSwitch {
				return elapsed + tArr
			}
		}
		elapsed += tSwitch
		m.phase2 = !m.phase2
	}
}

func (m *MMPP2) String() string {
	return fmt.Sprintf("MMPP2(rates %g/%g, switch %g/%g)", m.Rate1, m.Rate2, m.Switch1, m.Switch2)
}

// InBurst reports whether the process is currently in phase 1 (the
// high-rate phase). After NextInterarrival returns, this is the phase
// in which that arrival occurred.
func (m *MMPP2) InBurst() bool { return !m.phase2 }

// Job is one unit of work offered to the system.
type Job struct {
	ID      int
	Arrival float64 // absolute arrival time
	Size    float64 // service demand (time units at unit speed)
}

// Source generates a stream of jobs.
type Source interface {
	// Next returns the next job, or false when the stream ends.
	Next(rng *rand.Rand) (Job, bool)
}

// StochasticSource pairs an arrival process with a size distribution
// and produces up to Limit jobs (0 = unlimited).
type StochasticSource struct {
	Arrivals ArrivalProcess
	Sizes    dist.Distribution
	Limit    int

	clock float64
	count int
}

// Next draws the next job.
func (s *StochasticSource) Next(rng *rand.Rand) (Job, bool) {
	if s.Limit > 0 && s.count >= s.Limit {
		return Job{}, false
	}
	s.clock += s.Arrivals.NextInterarrival(rng)
	s.count++
	return Job{ID: s.count, Arrival: s.clock, Size: s.Sizes.Sample(rng)}, true
}

// ModulatedSource couples job sizes to the arrival phase of an MMPP-2:
// burst-phase arrivals draw from BurstSizes and quiet-phase arrivals
// from BaseSizes. This realises the paper's Section 7 scenario of
// "bursts consisting solely of short jobs", which cannot be expressed
// with independent sizes.
type ModulatedSource struct {
	Arrivals   *MMPP2
	BurstSizes dist.Distribution
	BaseSizes  dist.Distribution
	Limit      int

	clock float64
	count int
}

// Next draws the next job with a phase-dependent size.
func (s *ModulatedSource) Next(rng *rand.Rand) (Job, bool) {
	if s.Limit > 0 && s.count >= s.Limit {
		return Job{}, false
	}
	s.clock += s.Arrivals.NextInterarrival(rng)
	s.count++
	sizes := s.BaseSizes
	if s.Arrivals.InBurst() {
		sizes = s.BurstSizes
	}
	return Job{ID: s.count, Arrival: s.clock, Size: sizes.Sample(rng)}, true
}

// Trace is a deterministic job stream, used for the paper's worked
// example in Section 1.
type Trace struct {
	Jobs []Job
	next int
}

// NewTrace builds a trace from (arrival, size) pairs, assigning IDs in
// order.
func NewTrace(arrivals, sizes []float64) *Trace {
	if len(arrivals) != len(sizes) {
		panic("workload: trace lengths differ")
	}
	t := &Trace{}
	for i := range arrivals {
		t.Jobs = append(t.Jobs, Job{ID: i + 1, Arrival: arrivals[i], Size: sizes[i]})
	}
	return t
}

// Next returns the next traced job.
func (t *Trace) Next(*rand.Rand) (Job, bool) {
	if t.next >= len(t.Jobs) {
		return Job{}, false
	}
	j := t.Jobs[t.next]
	t.next++
	return j, true
}

// LoadTraceCSV reads a deterministic job trace from CSV lines of
// "arrival,size" (header lines and blanks are skipped; arrivals must
// be non-decreasing and sizes positive).
func LoadTraceCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	cr.TrimLeadingSpace = true
	var arrivals, sizes []float64
	line := 0
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line+1, err)
		}
		line++
		a, err1 := strconv.ParseFloat(rec[0], 64)
		s, err2 := strconv.ParseFloat(rec[1], 64)
		if err1 != nil || err2 != nil {
			if line == 1 {
				continue // tolerate a header row
			}
			return nil, fmt.Errorf("workload: trace line %d: bad numbers %q, %q", line, rec[0], rec[1])
		}
		if s <= 0 {
			return nil, fmt.Errorf("workload: trace line %d: non-positive size %g", line, s)
		}
		if len(arrivals) > 0 && a < arrivals[len(arrivals)-1] {
			return nil, fmt.Errorf("workload: trace line %d: arrivals must be non-decreasing", line)
		}
		arrivals = append(arrivals, a)
		sizes = append(sizes, s)
	}
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	return NewTrace(arrivals, sizes), nil
}
