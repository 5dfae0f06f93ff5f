package admission

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Default seeds for a fresh estimator, chosen from the measured
// figures in docs/PERFORMANCE.md: a cache-hit point on the paper's
// grids instantiates and solves in a few milliseconds, and a fresh
// K=28-class shape derivation costs tens of milliseconds. The seeds
// only matter until the first few observations arrive; the EWMAs then
// track the hardware.
const (
	DefaultSeedPointSeconds = 0.005
	DefaultSeedShapeSeconds = 0.05
	// ewmaAlpha is the decay of the cost averages: each observation
	// carries 20% weight, so the estimate tracks drift (bigger models,
	// warmer caches) within a handful of jobs without whiplashing on
	// one outlier.
	ewmaAlpha = 0.2
)

// ewma is a fixed-decay exponentially weighted moving average.
type ewma struct{ v float64 }

func (e *ewma) observe(x float64) {
	if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	e.v += ewmaAlpha * (x - e.v)
}

// Estimator predicts the cost of a job whose service duration is
// unknown — the literal version of the source paper's problem. A job
// is a sweep: Points model solves, of which FreshShapes need a
// state-space derivation (the rest hit the shared content-addressed
// cache). The estimator keeps one EWMA of the per-point solve cost
// and one of the per-shape derivation cost, seeded from measured
// defaults and updated from completed jobs.
type Estimator struct {
	mu    sync.Mutex
	point ewma // seconds per point, shape already cached
	shape ewma // seconds per fresh shape derivation
}

// NewEstimator returns an estimator seeded with the given per-point
// and per-shape costs; zero or negative seeds fall back to the
// measured defaults.
func NewEstimator(seedPointSeconds, seedShapeSeconds float64) *Estimator {
	if seedPointSeconds <= 0 {
		seedPointSeconds = DefaultSeedPointSeconds
	}
	if seedShapeSeconds <= 0 {
		seedShapeSeconds = DefaultSeedShapeSeconds
	}
	return &Estimator{point: ewma{seedPointSeconds}, shape: ewma{seedShapeSeconds}}
}

// EstimateJob predicts the wall seconds a job with the given point
// count and fresh-shape count will take on one worker.
func (e *Estimator) EstimateJob(points, freshShapes int) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return float64(points)*e.point.v + float64(freshShapes)*e.shape.v
}

// ObserveJob feeds a completed job back. The split between the two
// components is not identifiable from one job, so elapsed is
// attributed proportionally to the current estimates: both EWMAs are
// scaled by observed/predicted. Jobs with different point/shape mixes
// (cache-hot sweeps vs fresh models) then pull the two costs apart
// toward their true values, while a uniform workload just calibrates
// the total.
func (e *Estimator) ObserveJob(points, freshShapes int, elapsed time.Duration) {
	if points < 1 || elapsed <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	total := elapsed.Seconds()
	predicted := float64(points)*e.point.v + float64(freshShapes)*e.shape.v
	if predicted <= 0 {
		e.point.observe(total / float64(points))
		return
	}
	scale := total / predicted
	e.point.observe(e.point.v * scale)
	if freshShapes > 0 {
		e.shape.observe(e.shape.v * scale)
	}
}

// Costs returns the current per-point and per-shape estimates.
func (e *Estimator) Costs() (pointSeconds, shapeSeconds float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.point.v, e.shape.v
}

// Policy decides admission given the estimated backlog of admitted
// but unfinished work (seconds, all jobs) and the candidate job's own
// estimated cost (seconds).
type Policy interface {
	Admit(backlogSeconds, costSeconds float64) bool
	fmt.Stringer
}

// Threshold is the Mazzucco & Mitrani policy the daemon dogfoods: a
// job is admitted while the estimated backlog is below Bound seconds,
// and rejected otherwise — the work-conserving analogue of "admit
// while fewer than K jobs are present". The candidate's own estimated
// cost deliberately does not enter the decision: service durations
// are unknown, so admission is decided on the state of the queue, not
// on the job (exactly the information regime of the source paper).
// The analyzable counterpart is policies.AdmissionQueue with
// Queue = Bound / E[job seconds] places.
type Threshold struct {
	// Bound is the backlog ceiling in estimated seconds of work.
	Bound float64
}

// Admit implements Policy.
func (t Threshold) Admit(backlogSeconds, _ float64) bool { return backlogSeconds < t.Bound }

func (t Threshold) String() string { return fmt.Sprintf("threshold(bound=%gs)", t.Bound) }

// AlwaysAdmit accepts everything — the no-admission-control baseline.
type AlwaysAdmit struct{}

// Admit implements Policy.
func (AlwaysAdmit) Admit(float64, float64) bool { return true }

func (AlwaysAdmit) String() string { return "always-admit" }

// Decision is the outcome of one admission consultation.
type Decision struct {
	Admit bool `json:"admit"`
	// CostSeconds is the estimated cost of the candidate job.
	CostSeconds float64 `json:"cost_seconds"`
	// BacklogSeconds is the estimated outstanding work at decision
	// time, excluding the candidate.
	BacklogSeconds float64 `json:"backlog_seconds"`
	// RetryAfter is the suggested client back-off when rejected: the
	// time the current backlog needs to drain below the bound at the
	// configured worker capacity (at least one second).
	RetryAfter time.Duration `json:"-"`
}

// Stats is a snapshot of the controller for /v1/admission and tests.
type Stats struct {
	Policy              string  `json:"policy"`
	Workers             int     `json:"workers"`
	Admitted            int64   `json:"admitted"`
	Rejected            int64   `json:"rejected"`
	BacklogSeconds      float64 `json:"backlog_seconds"`
	PointCostSeconds    float64 `json:"point_cost_seconds"`
	ShapeCostSeconds    float64 `json:"shape_cost_seconds"`
	OutstandingJobs     int     `json:"outstanding_jobs"`
	ObservedJobs        int64   `json:"observed_jobs"`
	ObservedWorkSeconds float64 `json:"observed_work_seconds"`
}

// Controller serializes admission decisions and tracks the estimated
// backlog. All methods are safe for concurrent use.
type Controller struct {
	mu          sync.Mutex
	policy      Policy
	est         *Estimator
	workers     int
	outstanding map[uint64]float64 // handle -> estimated cost
	backlog     float64
	nextHandle  uint64
	admitted    int64
	rejected    int64
	observedN   int64
	observedSec float64
}

// NewController builds a controller over the given policy and
// estimator. workers is the solve-pool size, used to scale the
// Retry-After hint; nil est gets a default-seeded estimator, nil
// policy admits everything.
func NewController(policy Policy, est *Estimator, workers int) *Controller {
	if policy == nil {
		policy = AlwaysAdmit{}
	}
	if est == nil {
		est = NewEstimator(0, 0)
	}
	if workers < 1 {
		workers = 1
	}
	return &Controller{
		policy:      policy,
		est:         est,
		workers:     workers,
		outstanding: make(map[uint64]float64),
	}
}

// Submit consults the policy for a job with the given point and
// fresh-shape counts. When admitted, the job's estimated cost joins
// the backlog and the returned handle must later be passed to Finish
// (completed, with the measured elapsed time) or Abort (failed or
// canceled). A rejected submission returns handle 0.
func (c *Controller) Submit(points, freshShapes int) (handle uint64, d Decision) {
	cost := c.est.EstimateJob(points, freshShapes)
	c.mu.Lock()
	defer c.mu.Unlock()
	d = Decision{CostSeconds: cost, BacklogSeconds: c.backlog}
	if !c.policy.Admit(c.backlog, cost) {
		c.rejected++
		d.RetryAfter = c.retryAfterLocked(cost)
		return 0, d
	}
	c.admitted++
	d.Admit = true
	c.nextHandle++
	handle = c.nextHandle
	c.outstanding[handle] = cost
	c.backlog += cost
	return handle, d
}

// retryAfterLocked suggests how long a rejected client should wait:
// the time the worker pool needs to clear enough backlog that the
// policy could admit (approximated as the whole backlog for
// non-threshold policies), at least one second.
func (c *Controller) retryAfterLocked(cost float64) time.Duration {
	drain := c.backlog
	if t, ok := c.policy.(Threshold); ok {
		drain = c.backlog - t.Bound
	}
	sec := drain / float64(c.workers)
	if sec < 1 {
		sec = 1
	}
	return time.Duration(math.Ceil(sec)) * time.Second
}

// Finish retires an admitted job and feeds its measured duration back
// into the estimator.
func (c *Controller) Finish(handle uint64, points, freshShapes int, elapsed time.Duration) {
	c.mu.Lock()
	cost, ok := c.outstanding[handle]
	if ok {
		delete(c.outstanding, handle)
		c.backlog -= cost
		if c.backlog < 0 {
			c.backlog = 0
		}
		c.observedN++
		c.observedSec += elapsed.Seconds()
	}
	c.mu.Unlock()
	if ok {
		c.est.ObserveJob(points, freshShapes, elapsed)
	}
}

// Abort retires an admitted job without feeding the estimator (the
// job failed or was canceled, so its duration is not a service-time
// sample).
func (c *Controller) Abort(handle uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost, ok := c.outstanding[handle]; ok {
		delete(c.outstanding, handle)
		c.backlog -= cost
		if c.backlog < 0 {
			c.backlog = 0
		}
	}
}

// Backlog returns the current estimated outstanding work in seconds.
func (c *Controller) Backlog() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.backlog
}

// Stats snapshots the controller.
func (c *Controller) Stats() Stats {
	point, shape := c.est.Costs()
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Policy:              c.policy.String(),
		Workers:             c.workers,
		Admitted:            c.admitted,
		Rejected:            c.rejected,
		BacklogSeconds:      c.backlog,
		PointCostSeconds:    point,
		ShapeCostSeconds:    shape,
		OutstandingJobs:     len(c.outstanding),
		ObservedJobs:        c.observedN,
		ObservedWorkSeconds: c.observedSec,
	}
}
