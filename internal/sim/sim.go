package sim

import (
	"fmt"
	"math/rand/v2"

	"pepatags/internal/obsv"
	"pepatags/internal/stats"
	"pepatags/internal/workload"
)

// Metric names registered by the simulator (metricname analyzer,
// tools/govet-suite). The per-node gauge family substitutes the node
// index for the %d verb.
const (
	metricEvents       = "sim.events"
	metricCompleted    = "sim.completed"
	metricDropped      = "sim.dropped"
	metricKilled       = "sim.killed"
	metricMigrated     = "sim.migrated"
	metricResponse     = "sim.response"
	metricSlowdown     = "sim.slowdown"
	metricQueueLen     = "sim.queue_len"
	metricNodeQueueFmt = "sim.node%d.queue"
)

// Job is the simulator's view of a unit of work.
type Job struct {
	ID        int
	Arrival   float64
	Size      float64
	Remaining float64 // work left (differs from Size under resume semantics)
	NodeIdx   int
}

// NodeConfig configures one service node.
type NodeConfig struct {
	Capacity int     // max jobs at the node incl. in service; 0 = unbounded
	Servers  int     // parallel servers; 0 means 1
	Speed    float64 // service speed; 0 means 1

	// Timeout, when non-nil, samples the kill timer for each service
	// attempt (use a constant function for the real deterministic TAG).
	// On expiry the job is killed and moved to the next node; at the
	// last node the timeout is ignored.
	Timeout func(rng *rand.Rand) float64

	// Resume continues from the interrupted point at the next node
	// (multi-level feedback). Default false = TAG restart semantics.
	Resume bool
}

// Policy routes an arriving job to a node index, or -1 to drop it.
// Route must not keep j after it returns: the System recycles a Job
// once it completes or is lost, and the same *Job then carries a later
// arrival.
type Policy interface {
	Route(sys *System, j *Job) int
	String() string
}

// Config is a complete simulation setup.
type Config struct {
	Nodes  []NodeConfig
	Policy Policy
	Source workload.Source
	Seed   uint64
	// Warmup discards jobs arriving before this time from the metrics.
	Warmup float64
	// SizeBands, when non-empty, must be sorted ascending; completed
	// jobs are classified by size into len(SizeBands)+1 bands and a
	// slowdown summary is kept per band. This backs the fairness
	// analysis (slowdown vs job size) of Harchol-Balter's TAGS paper,
	// which the reproduced paper cites in its footnote on fairness.
	SizeBands []float64
	// PercentileSample, when > 0, keeps a reservoir sample of response
	// times of that capacity so tail percentiles can be reported.
	PercentileSample int

	// Metrics, when non-nil, receives per-event instrumentation
	// through the registry: the sim.events / sim.completed /
	// sim.dropped / sim.killed / sim.migrated counters, the
	// sim.response, sim.slowdown and sim.queue_len histograms, and a
	// sim.node<i>.queue gauge per node. The instrument handles are
	// resolved once at NewSystem, so the event loop stays
	// allocation-free. Job-level instruments follow the same warmup
	// rule as the Metrics result struct: pre-warmup jobs are not
	// recorded.
	Metrics *obsv.Registry

	// Progress, when non-nil, is called every ProgressEvery processed
	// events with Phase "sim", the event count, the completed-job
	// count and the simulation clock — the hook long runs use to
	// report liveness.
	Progress obsv.ProgressFunc

	// ProgressEvery is the event interval between Progress calls;
	// <= 0 means every 65536 events.
	ProgressEvery int

	// Events, when non-nil, receives a "sim.progress" debug event on
	// the Progress cadence (event count, completed jobs, simulation
	// clock) and a "sim.done" info event when the run drains.
	Events *obsv.EventLog

	// ReferenceCore selects the retained container/heap event queue
	// instead of the calendar queue. The two cores implement the same
	// strict event order, so results are bit-identical either way; the
	// heap survives purely as the differential oracle (the engine-swap
	// pattern of pepa.DeriveOptions.Reference) and for benchmarking
	// the calendar queue against its predecessor.
	ReferenceCore bool

	// EventObserver, when non-nil, receives every processed event in
	// execution order. This is the hook the differential test battery
	// uses to require identical event orderings across cores;
	// production runs leave it nil (the check is one pointer test per
	// event).
	EventObserver func(EventRecord)
}

// EventRecord is the observer's view of one processed event.
type EventRecord struct {
	Seq  int     // scheduling sequence number (unique)
	At   float64 // simulation time
	Kind string  // "arrival", "departure" or "kill"
	Node int     // node index; -1 for arrivals (not yet routed)
	Job  int     // job ID
}

// Metrics aggregates the simulation output.
type Metrics struct {
	Response stats.Summary // completion - arrival
	Slowdown stats.Summary // response / size
	// BandSlowdown[i] is the slowdown summary of jobs in size band i
	// (band i covers sizes in (SizeBands[i-1], SizeBands[i]]); empty
	// when Config.SizeBands is unset.
	BandSlowdown []stats.Summary
	// ResponseSamples is a reservoir of response times, present when
	// Config.PercentileSample > 0.
	ResponseSamples *stats.Reservoir
	Completed       int
	Dropped         int // dropped at arrival (policy or full first queue)
	Killed          int // dropped mid-route (full next queue after a timeout)
	Events          int // discrete events processed by the run
	BusyTime        []float64
	Elapsed         float64 // full simulated horizon
	Warmup          float64 // initial period excluded from job metrics
}

// Throughput is completed (post-warmup) jobs per unit measured time.
func (m *Metrics) Throughput() float64 {
	t := m.Elapsed - m.Warmup
	if t <= 0 {
		return 0
	}
	return float64(m.Completed) / t
}

// LossProbability is the fraction of offered jobs that never complete.
func (m *Metrics) LossProbability() float64 {
	total := m.Completed + m.Dropped + m.Killed
	if total == 0 {
		return 0
	}
	return float64(m.Dropped+m.Killed) / float64(total)
}

// ResponsePercentile reports the p-quantile of sampled response times;
// it returns 0 unless Config.PercentileSample was set.
func (m *Metrics) ResponsePercentile(p float64) float64 {
	if m.ResponseSamples == nil {
		return 0
	}
	return m.ResponseSamples.Percentile(p)
}

// Utilization returns node i's busy fraction.
func (m *Metrics) Utilization(i int) float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return m.BusyTime[i] / m.Elapsed
}

type node struct {
	cfg NodeConfig
	// queue holds the waiting jobs in FIFO order in queue[head:]. The
	// head offset lets dequeue keep the backing array, which is reused
	// once the queue empties (or compacted when an enqueue finds it
	// full), so the queue stops allocating once it has reached its
	// largest length.
	queue []*Job
	head  int
	inUse int // busy servers
	count int // jobs present (queue + in service)
}

// nodeQueueSlab is the most slots a node queue starts with. A queue
// that outgrows its slots moves to an array of its own.
const nodeQueueSlab = 8

// queueSlab is the number of slots the node's queue starts with: room
// for every job that can wait there, up to nodeQueueSlab.
func (nc NodeConfig) queueSlab() int {
	if nc.Capacity > 0 {
		return max(min(nc.Capacity-nc.Servers, nodeQueueSlab), 0)
	}
	return nodeQueueSlab
}

func (n *node) enqueue(j *Job) {
	n.queue, n.head = compactFront(n.queue, n.head)
	n.queue = append(n.queue, j)
}

// dequeue removes and returns the oldest waiting job, or nil.
func (n *node) dequeue() *Job {
	if n.head == len(n.queue) {
		return nil
	}
	j := n.queue[n.head]
	n.head++
	if n.head == len(n.queue) {
		n.queue, n.head = n.queue[:0], 0
	}
	return j
}

// event is either the pending source arrival, which the System holds
// in its arrival field, or the end of a service attempt, which waits
// in the event queue.
type event struct {
	at       float64
	seq      int // tie-breaker for determinism
	job      *Job
	node     int
	kill     bool    // departure is a timeout kill
	start    float64 // service start time (departure events)
	progress float64 // work performed during the attempt (speed-adjusted)
}

// instruments buffers the event loop's measurements locally — plain
// integer bumps and HistogramBuffer observations, no atomics — and
// flushes the deltas to the shared registry at every progress tick
// and at the end of Run. The event loop is single-threaded, so the
// only readers that see tick-granularity staleness are concurrent
// registry consumers (the -debug-addr endpoint), which also see the
// per-node occupancy gauges as of the last flush.
type instruments struct {
	events    int64 // deltas since the last flush
	completed int64
	dropped   int64
	killed    int64
	migrated  int64 // timed-out jobs successfully moved to the next node

	response *obsv.HistogramBuffer
	slowdown *obsv.HistogramBuffer
	queueLen *obsv.HistogramBuffer // node occupancy observed at each admission

	cEvents    *obsv.Counter
	cCompleted *obsv.Counter
	cDropped   *obsv.Counter
	cKilled    *obsv.Counter
	cMigrated  *obsv.Counter
	queue      []*obsv.Gauge // per-node live occupancy
}

func newInstruments(reg *obsv.Registry, nodes int) *instruments {
	in := &instruments{
		cEvents:    reg.Counter(metricEvents),
		cCompleted: reg.Counter(metricCompleted),
		cDropped:   reg.Counter(metricDropped),
		cKilled:    reg.Counter(metricKilled),
		cMigrated:  reg.Counter(metricMigrated),
		response:   reg.Histogram(metricResponse).Buffer(),
		slowdown:   reg.Histogram(metricSlowdown).Buffer(),
		queueLen:   reg.Histogram(metricQueueLen).Buffer(),
	}
	for i := 0; i < nodes; i++ {
		in.queue = append(in.queue, reg.Gauge(fmt.Sprintf(metricNodeQueueFmt, i)))
	}
	return in
}

// flush publishes the buffered deltas to the registry.
func (in *instruments) flush() {
	in.cEvents.Add(in.events)
	in.cCompleted.Add(in.completed)
	in.cDropped.Add(in.dropped)
	in.cKilled.Add(in.killed)
	in.cMigrated.Add(in.migrated)
	in.events, in.completed, in.dropped, in.killed, in.migrated = 0, 0, 0, 0, 0
	in.response.Flush()
	in.slowdown.Flush()
	in.queueLen.Flush()
}

// flushInstruments publishes counter/histogram deltas and the current
// per-node occupancies.
func (s *System) flushInstruments() {
	s.inst.flush()
	for i := range s.nodes {
		s.inst.queue[i].Set(float64(s.nodes[i].count))
	}
}

// System is a running simulation.
//
// The next source arrival is held in the System, not in the event
// queue: a source yields its jobs in arrival order, so at most one
// arrival is ever pending, and the queue holds departures only. Run
// takes the earlier of the two by (at, seq).
//
// Departure events and jobs are recycled through per-System free
// lists: an event goes back once its handler returns, a job once it
// completes or is lost (dropped at arrival, or killed at a full next
// node). With the head-offset node queues and calendar buckets this
// makes the event loop allocation-free in steady state, whichever core
// runs it.
type System struct {
	cfg        Config
	rng        *rand.Rand
	nodes      []node
	events     eventQueue
	arrival    event // the pending source arrival, when pending
	freeEvents freeList[event]
	freeJobs   freeList[Job]
	now        float64
	seq        int
	metrics    Metrics
	pending    bool // arrival holds a source arrival
	inst       *instruments
}

// NewSystem validates the configuration and prepares a simulation.
func NewSystem(cfg Config) *System {
	if len(cfg.Nodes) == 0 {
		panic("sim: need at least one node")
	}
	if cfg.Policy == nil || cfg.Source == nil {
		panic("sim: need policy and source")
	}
	s := &System{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xdeadbeefcafe)),
	}
	if cfg.ReferenceCore {
		s.events = newHeapQueue()
	} else {
		s.events = newCalendarQueue()
	}
	s.nodes = make([]node, len(cfg.Nodes))
	slab := 0
	for i, nc := range cfg.Nodes {
		if nc.Servers <= 0 {
			nc.Servers = 1
		}
		if nc.Speed <= 0 {
			nc.Speed = 1
		}
		s.nodes[i].cfg = nc
		slab += nc.queueSlab()
	}
	// Every queue starts with its slots in one array for the table.
	queues := make([]*Job, slab)
	for i := range s.nodes {
		k := s.nodes[i].cfg.queueSlab()
		s.nodes[i].queue, queues = queues[:0:k], queues[k:]
	}
	s.metrics.BusyTime = make([]float64, len(cfg.Nodes))
	if cfg.PercentileSample > 0 {
		s.metrics.ResponseSamples = stats.NewReservoir(cfg.PercentileSample, s.rng.Float64)
	}
	if len(cfg.SizeBands) > 0 {
		for i := 1; i < len(cfg.SizeBands); i++ {
			if cfg.SizeBands[i] <= cfg.SizeBands[i-1] {
				panic("sim: SizeBands must be strictly ascending")
			}
		}
		s.metrics.BandSlowdown = make([]stats.Summary, len(cfg.SizeBands)+1)
	}
	if cfg.Metrics != nil {
		s.inst = newInstruments(cfg.Metrics, len(cfg.Nodes))
	}
	return s
}

// band classifies a job size against the configured boundaries.
func (s *System) band(size float64) int {
	for i, b := range s.cfg.SizeBands {
		if size <= b {
			return i
		}
	}
	return len(s.cfg.SizeBands)
}

// NumNodes returns the node count.
func (s *System) NumNodes() int { return len(s.nodes) }

// QueueLength returns the number of jobs present at node i.
func (s *System) QueueLength(i int) int { return s.nodes[i].count }

// WorkLeft estimates the unfinished work queued at node i (the oracle
// quantity used by the least-work-left policy).
func (s *System) WorkLeft(i int) float64 {
	var w float64
	n := &s.nodes[i]
	for _, j := range n.queue[n.head:] {
		w += j.Remaining
	}
	// In-service work is not tracked per server; approximate by half a
	// mean job. Policies needing exact values should use queue lengths.
	return w + float64(n.inUse)*0.5
}

// RNG exposes the simulation RNG to policies.
func (s *System) RNG() *rand.Rand { return s.rng }

// freeList recycles objects of one kind. Once a System has made
// freeBlock of them, it makes the rest freeBlock at a time in one
// array, so a large cluster's population of events and jobs costs a
// few allocations while a small one allocates exactly what it holds.
type freeList[T any] struct {
	free []*T
	made int
}

const freeBlock = 64

// get returns a recycled object, or a new one when none is free.
func (f *freeList[T]) get() *T {
	if len(f.free) == 0 {
		n := 1
		if f.made >= freeBlock {
			n = freeBlock
		}
		block := make([]T, n)
		for i := range block {
			f.free = append(f.free, &block[i])
		}
		f.made += n
	}
	k := len(f.free) - 1
	x := f.free[k]
	f.free = f.free[:k]
	return x
}

// put returns x to the list.
func (f *freeList[T]) put(x *T) { f.free = append(f.free, x) }

// scheduleDeparture queues the end of j's service attempt at node i,
// started now, in an event from the free list stamped with the next
// sequence number: at time at, as a kill if kill, having done progress
// units of work.
func (s *System) scheduleDeparture(at float64, j *Job, i int, kill bool, progress float64) {
	e := s.freeEvents.get()
	e.at, e.seq, e.job, e.node = at, s.seq, j, i
	e.kill, e.start, e.progress = kill, s.now, progress
	s.seq++
	s.events.push(e)
}

// newJob returns a job for w from the free list.
func (s *System) newJob(w workload.Job) *Job {
	j := s.freeJobs.get()
	*j = Job{ID: w.ID, Arrival: w.Arrival, Size: w.Size, Remaining: w.Size}
	return j
}

// releaseJob returns a job that has left the system to the free list.
func (s *System) releaseJob(j *Job) { s.freeJobs.put(j) }

// admit places a job at node i (post-routing); returns false when the
// node is full.
func (s *System) admit(j *Job, i int) bool {
	n := &s.nodes[i]
	if n.cfg.Capacity > 0 && n.count >= n.cfg.Capacity {
		return false
	}
	n.count++
	if s.inst != nil {
		s.inst.queueLen.Observe(float64(n.count))
	}
	j.NodeIdx = i
	if n.inUse < n.cfg.Servers {
		s.startService(j, i)
	} else {
		n.enqueue(j)
	}
	return true
}

// startService begins serving j at node i and schedules its departure.
func (s *System) startService(j *Job, i int) {
	n := &s.nodes[i]
	n.inUse++
	// Remaining equals Size under restart semantics (kills never deduct
	// progress) and the true residual under resume semantics.
	work := j.Remaining
	serviceTime := work / n.cfg.Speed
	last := i == len(s.nodes)-1
	if n.cfg.Timeout != nil && !last {
		to := n.cfg.Timeout(s.rng)
		if to < serviceTime {
			s.scheduleDeparture(s.now+to, j, i, true, to*n.cfg.Speed)
			return
		}
	}
	s.scheduleDeparture(s.now+serviceTime, j, i, false, work)
}

// serveNext pulls the next queued job at node i, if any.
func (s *System) serveNext(i int) {
	if j := s.nodes[i].dequeue(); j != nil {
		s.startService(j, i)
	}
}

// Run drives the simulation until the source is exhausted and all
// events drain, or until maxTime (0 = no limit) passes. It returns the
// metrics.
func (s *System) Run(maxTime float64) *Metrics {
	every := s.cfg.ProgressEvery
	if every <= 0 {
		every = 1 << 16
	}
	// processed counts events; tick counts down to the next progress
	// report.
	processed, tick := 0, every
	s.scheduleNextArrival()
	for {
		var e *event
		if s.pending {
			if e = s.events.popBefore(&s.arrival); e == nil {
				e = &s.arrival
			}
		} else if e = s.events.pop(); e == nil {
			break
		}
		if maxTime > 0 && e.at > maxTime {
			s.now = maxTime
			break
		}
		s.now = e.at
		arrival := e == &s.arrival
		if s.cfg.EventObserver != nil {
			s.cfg.EventObserver(record(e, arrival))
		}
		if arrival {
			s.pending = false
			s.handleArrival(e.job)
			s.scheduleNextArrival()
		} else {
			s.handleDeparture(e)
			s.freeEvents.put(e)
		}
		processed++
		if tick--; tick == 0 {
			tick = every
			if s.inst != nil {
				s.inst.events += int64(every)
				s.flushInstruments()
			}
			if s.cfg.Progress != nil {
				s.cfg.Progress(obsv.Progress{Phase: "sim", Step: processed, Count: s.metrics.Completed, Value: s.now})
			}
			if s.cfg.Events != nil {
				s.cfg.Events.Emit(obsv.LevelDebug, "sim.progress", "", map[string]float64{
					"events":    float64(processed),
					"completed": float64(s.metrics.Completed),
					"clock":     s.now,
				})
			}
		}
	}
	if s.inst != nil {
		s.inst.events += int64(every - tick)
		s.flushInstruments()
	}
	s.metrics.Elapsed = s.now
	s.metrics.Warmup = s.cfg.Warmup
	s.metrics.Events = processed
	if s.cfg.Events != nil {
		s.cfg.Events.Emit(obsv.LevelInfo, "sim.done", "", map[string]float64{
			"events":    float64(processed),
			"completed": float64(s.metrics.Completed),
			"dropped":   float64(s.metrics.Dropped),
			"killed":    float64(s.metrics.Killed),
			"clock":     s.now,
		})
	}
	return &s.metrics
}

func (s *System) scheduleNextArrival() {
	if s.pending {
		return
	}
	wj, ok := s.cfg.Source.Next(s.rng)
	if !ok {
		return
	}
	if wj.Size <= 0 {
		panic(fmt.Sprintf("sim: job %d has non-positive size %g", wj.ID, wj.Size))
	}
	s.pending = true
	s.arrival.at, s.arrival.seq, s.arrival.job = wj.Arrival, s.seq, s.newJob(wj)
	s.seq++
}

func (s *System) handleArrival(j *Job) {
	target := s.cfg.Policy.Route(s, j)
	if target < 0 || target >= len(s.nodes) || !s.admit(j, target) {
		if j.Arrival >= s.cfg.Warmup {
			s.metrics.Dropped++
			if s.inst != nil {
				s.inst.dropped++
			}
		}
		s.releaseJob(j)
	}
}

func (s *System) handleDeparture(e *event) {
	i := e.node
	n := &s.nodes[i]
	n.inUse--
	n.count--
	j := e.job
	counted := j.Arrival >= s.cfg.Warmup
	// Busy time covers the full attempt, whether or not the work is lost.
	s.metrics.BusyTime[i] += e.at - e.start
	if e.kill {
		if n.cfg.Resume {
			j.Remaining -= e.progress
			if j.Remaining < 1e-12 {
				j.Remaining = 1e-12 // guard against a zero-length final attempt
			}
		}
		s.advanceKilled(j, i, counted)
	} else {
		if counted {
			s.metrics.Response.Add(s.now - j.Arrival)
			s.metrics.Slowdown.Add((s.now - j.Arrival) / j.Size)
			if s.metrics.BandSlowdown != nil {
				s.metrics.BandSlowdown[s.band(j.Size)].Add((s.now - j.Arrival) / j.Size)
			}
			if s.metrics.ResponseSamples != nil {
				s.metrics.ResponseSamples.Add(s.now - j.Arrival)
			}
			s.metrics.Completed++
			if s.inst != nil {
				s.inst.completed++
				s.inst.response.Observe(s.now - j.Arrival)
				s.inst.slowdown.Observe((s.now - j.Arrival) / j.Size)
			}
		}
		s.releaseJob(j)
	}
	s.serveNext(i)
}

// record converts an internal event to its observer view.
func record(e *event, arrival bool) EventRecord {
	r := EventRecord{Seq: e.seq, At: e.at, Job: e.job.ID}
	switch {
	case arrival:
		r.Kind, r.Node = "arrival", -1
	case e.kill:
		r.Kind, r.Node = "kill", e.node
	default:
		r.Kind, r.Node = "departure", e.node
	}
	return r
}

// advanceKilled moves a timed-out job to node i+1.
func (s *System) advanceKilled(j *Job, i int, counted bool) {
	if s.admit(j, i+1) {
		if counted && s.inst != nil {
			s.inst.migrated++
		}
	} else {
		if counted {
			s.metrics.Killed++
			if s.inst != nil {
				s.inst.killed++
			}
		}
		s.releaseJob(j)
	}
}
