package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pepatags/internal/obsv"
	"pepatags/internal/serve/admission"
	"pepatags/internal/sweep"
)

// Metric names registered by the daemon (docs/LINT.md#metric-naming).
const (
	metricJobsSubmitted = "serve.jobs_submitted"
	metricJobsRejected  = "serve.jobs_rejected"
	metricJobsDone      = "serve.jobs_done"
	metricJobsFailed    = "serve.jobs_failed"
	metricJobsCanceled  = "serve.jobs_canceled"
	metricBacklog       = "serve.backlog_seconds"
	metricJobSeconds    = "serve.job_seconds"
)

// Config configures a Server. The zero value is usable: one job at a
// time, solve pool sized to the machine, no admission bound (admit
// everything), no manifests.
type Config struct {
	// JobWorkers is the number of jobs run concurrently (default 1 —
	// jobs are themselves parallel, so one at a time is the right
	// default on a small machine).
	JobWorkers int
	// SolveWorkers is the per-job sweep pool size (default NumCPU).
	// A submission may lower it per job, never raise it.
	SolveWorkers int
	// QueueDepth bounds the admitted-but-not-started queue (default
	// 64). Admission control should trip long before this does; the
	// channel bound is the backstop.
	QueueDepth int

	// AdmissionBound is the work threshold in estimated seconds:
	// submissions are rejected while the estimated backlog is at or
	// above it. Zero or negative disables admission control.
	AdmissionBound float64
	// SeedPointSeconds / SeedShapeSeconds seed the cost estimator
	// (defaults from measured DeriveStats history; see
	// admission.DefaultSeedPointSeconds).
	SeedPointSeconds float64
	SeedShapeSeconds float64

	// ManifestDir, when set, receives one run manifest per finished
	// job (<job-id>.json, schema pepatags/run-manifest/v1), including
	// failure manifests for canceled and killed jobs.
	ManifestDir string

	// Log receives server-level events (serve.listen, job.start,
	// serve.reject, ...). A fresh log is created when nil.
	Log *obsv.EventLog
	// Registry receives server and engine metrics, served on /metrics.
	// A fresh registry is created when nil.
	Registry *obsv.Registry
}

// Server is the pepad daemon core: a bounded job pool over the sweep
// engine with a shared state-space cache, per-job event streams and
// admission control. It is transport-agnostic apart from Handler;
// cmd/pepad wires it to a net/http listener.
type Server struct {
	cfg   Config
	cache *sweep.Cache
	ctrl  *admission.Controller
	reg   *obsv.Registry
	log   *obsv.EventLog
	mux   *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	queue    chan *Job
	draining bool
	nextID   int

	wg sync.WaitGroup

	mSubmitted, mRejected, mDone, mFailed, mCanceled *obsv.Counter
	gBacklog                                         *obsv.Gauge
	hJobSec                                          *obsv.Histogram
}

// New builds a server and starts its job workers. Callers must
// eventually Shutdown it.
func New(cfg Config) *Server {
	if cfg.JobWorkers < 1 {
		cfg.JobWorkers = 1
	}
	if cfg.SolveWorkers < 1 {
		cfg.SolveWorkers = runtime.NumCPU()
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 64
	}
	if cfg.Log == nil {
		cfg.Log = obsv.NewEventLog(obsv.EventLogConfig{})
	}
	if cfg.Registry == nil {
		cfg.Registry = obsv.NewRegistry()
	}
	var pol admission.Policy = admission.AlwaysAdmit{}
	if cfg.AdmissionBound > 0 {
		pol = admission.Threshold{Bound: cfg.AdmissionBound}
	}
	est := admission.NewEstimator(cfg.SeedPointSeconds, cfg.SeedShapeSeconds)
	s := &Server{
		cfg:        cfg,
		cache:      sweep.NewCache(),
		ctrl:       admission.NewController(pol, est, cfg.JobWorkers*cfg.SolveWorkers),
		reg:        cfg.Registry,
		log:        cfg.Log,
		jobs:       make(map[string]*Job),
		queue:      make(chan *Job, cfg.QueueDepth),
		mSubmitted: cfg.Registry.Counter(metricJobsSubmitted),
		mRejected:  cfg.Registry.Counter(metricJobsRejected),
		mDone:      cfg.Registry.Counter(metricJobsDone),
		mFailed:    cfg.Registry.Counter(metricJobsFailed),
		mCanceled:  cfg.Registry.Counter(metricJobsCanceled),
		gBacklog:   cfg.Registry.Gauge(metricBacklog),
		hJobSec:    cfg.Registry.Histogram(metricJobSeconds),
	}
	s.mux = s.routes()
	for i := 0; i < cfg.JobWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// SubmitError is a rejected submission, carrying the HTTP status and
// Retry-After the transport layer should relay.
type SubmitError struct {
	Status     int // 429 (admission/queue) or 503 (draining)
	RetryAfter time.Duration
	Reason     string
	Decision   *admission.Decision // nil for drain rejections
}

func (e *SubmitError) Error() string { return e.Reason }

// Submit validates and admits a spec. workers <= 0 takes the server
// default; values above the server's solve pool are clamped down.
func (s *Server) Submit(spec *sweep.Spec, workers int) (*Job, error) {
	// One expansion validates the spec, addresses it and sizes the
	// admission estimate; the job's sweep.Run expands it once more.
	points, hash, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	if workers <= 0 || workers > s.cfg.SolveWorkers {
		workers = s.cfg.SolveWorkers
	}
	fresh := sweep.FreshShapes(points, s.cache)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		retry := s.drainRetryAfter()
		s.log.Warnf("serve.reject", "draining: rejected spec %s (%d points)", spec.Name, len(points))
		s.mRejected.Inc()
		return nil, &SubmitError{Status: http.StatusServiceUnavailable, RetryAfter: retry,
			Reason: "server is draining"}
	}
	handle, d := s.ctrl.Submit(len(points), fresh)
	if !d.Admit {
		s.mu.Unlock()
		s.mRejected.Inc()
		s.gBacklog.Set(d.BacklogSeconds)
		s.log.Emit(obsv.LevelWarn, "serve.reject", "admission: backlog over bound",
			map[string]float64{"backlog_sec": d.BacklogSeconds, "cost_sec": d.CostSeconds})
		return nil, &SubmitError{Status: http.StatusTooManyRequests, RetryAfter: d.RetryAfter,
			Reason: "admission control: estimated backlog over bound", Decision: &d}
	}
	s.nextID++
	job := &Job{
		ID:       fmt.Sprintf("job-%04d", s.nextID),
		Spec:     spec,
		SpecHash: hash,
		Points:   len(points),
		Fresh:    fresh,
		Workers:  workers,
		Handle:   handle,
		Cost:     d.CostSeconds,
		Log:      obsv.NewEventLog(obsv.EventLogConfig{}),
		cancel:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	job.submitted = time.Now()
	job.state = StateQueued

	select {
	case s.queue <- job:
	default:
		s.mu.Unlock()
		s.ctrl.Abort(handle)
		s.mRejected.Inc()
		s.log.Warnf("serve.reject", "queue full: rejected spec %s", spec.Name)
		return nil, &SubmitError{Status: http.StatusTooManyRequests, RetryAfter: time.Second,
			Reason: "job queue full", Decision: &d}
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.mu.Unlock()

	s.mSubmitted.Inc()
	s.gBacklog.Set(s.ctrl.Backlog())
	job.Log.Emit(obsv.LevelInfo, "job.submit", "admitted "+spec.Name,
		map[string]float64{"points": float64(len(points)), "fresh_shapes": float64(fresh),
			"cost_estimate_sec": d.CostSeconds, "backlog_sec": d.BacklogSeconds})
	s.log.Infof("job.submit", "%s: %s (%d points, %d fresh shapes, est %.3fs)",
		job.ID, spec.Name, len(points), fresh, d.CostSeconds)
	return job, nil
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// drainRetryAfter suggests when a drained-away client might find a
// server again: the time to clear the current backlog, at least a
// second. (A restarting daemon with a warm cache will beat this.)
func (s *Server) drainRetryAfter() time.Duration {
	sec := s.ctrl.Backlog() / float64(s.cfg.JobWorkers*s.cfg.SolveWorkers)
	if sec < 1 {
		sec = 1
	}
	return time.Duration(sec * float64(time.Second)).Round(time.Second)
}

// worker drains the job queue. Workers exit when the queue is closed
// (Shutdown) and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one job through the sweep engine and retires it:
// final state, admission bookkeeping, metrics, and a manifest.
func (s *Server) runJob(job *Job) {
	start := time.Now()
	job.setRunning(start)
	s.log.Infof("job.start", "%s: %s (%d points, workers=%d)", job.ID, job.Spec.Name, job.Points, job.Workers)

	res, err := sweep.Run(job.Spec, sweep.Options{
		Workers:  job.Workers,
		Cache:    s.cache,
		Cancel:   job.cancel,
		Registry: s.reg,
		Events:   job.Log,
	})
	elapsed := time.Since(start)

	state := StateDone
	switch {
	case err == nil:
		s.ctrl.Finish(job.Handle, job.Points, job.Fresh, res.Elapsed)
		s.mDone.Inc()
		s.hJobSec.Observe(elapsed.Seconds())
	case errors.Is(err, sweep.ErrCanceled):
		state = StateCanceled
		s.ctrl.Abort(job.Handle)
		s.mCanceled.Inc()
	default:
		state = StateFailed
		s.ctrl.Abort(job.Handle)
		s.mFailed.Inc()
	}
	s.gBacklog.Set(s.ctrl.Backlog())

	manifest := s.writeManifest(job, res, err)
	job.setFinal(state, res, err, time.Now(), manifest)
	job.Log.Close()

	if err != nil {
		s.log.Errorf("job."+state, "%s: %v", job.ID, err)
	} else {
		s.log.Infof("job.done", "%s: %d rows in %v (cache %d hits / %d misses)",
			job.ID, len(res.Rows), elapsed.Round(time.Millisecond), res.CacheHits, res.CacheMisses)
	}
}

// writeManifest records the job under ManifestDir, mirroring the
// tagseval -sweep manifest so tools/manifestcheck validates both the
// same way. Returns the path, or "" when manifests are off or the
// write failed (logged, never fatal: the job result stands on its
// own).
func (s *Server) writeManifest(job *Job, res *sweep.RunResult, runErr error) string {
	if s.cfg.ManifestDir == "" {
		return ""
	}
	m := obsv.NewManifest("pepad")
	m.Params = map[string]any{"job": job.ID, "spec": job.Spec.Name}
	m.Workers = job.Workers
	if runErr != nil {
		m.Error = runErr.Error()
	}
	if res != nil {
		m.Sweep = &obsv.SweepRecord{
			Name:        job.Spec.Name,
			SpecSHA256:  res.SpecHash,
			Points:      len(res.Points),
			Resumed:     res.Resumed,
			Workers:     job.Workers,
			CacheHits:   res.CacheHits,
			CacheMisses: res.CacheMisses,
			ElapsedSec:  res.Elapsed.Seconds(),
		}
	}
	m.Metrics = s.reg.Snapshot()
	m.Events = job.Log.Record("")
	path := filepath.Join(s.cfg.ManifestDir, job.ID+".json")
	if err := m.WriteFile(path); err != nil {
		s.log.Errorf("job.manifest", "%s: writing manifest: %v", job.ID, err)
		return ""
	}
	return path
}

// Shutdown drains the daemon: no new submissions, queued and running
// jobs finish, then workers exit. If ctx expires first, every
// unfinished job is canceled (in-flight points complete, the rest are
// abandoned) and each leaves a failure manifest. Always returns after
// the pool has stopped; the error reports whether jobs were killed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("serve: already shut down")
	}
	s.draining = true
	close(s.queue)
	n := 0
	for _, j := range s.jobs {
		if st := j.State(); st == StateQueued || st == StateRunning {
			n++
		}
	}
	s.mu.Unlock()
	s.log.Infof("serve.drain", "draining: %d unfinished jobs", n)

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var killed bool
	select {
	case <-done:
	case <-ctx.Done():
		killed = true
		s.mu.Lock()
		for _, j := range s.jobs {
			j.Cancel()
		}
		s.mu.Unlock()
		s.log.Warnf("serve.kill", "drain deadline passed: canceling unfinished jobs")
		// The context is already expired on this path; the wait is for
		// the just-canceled workers to unwind, which is bounded.
		<-done //vet:allow ctxflow: ctx.Done already fired; waiting for canceled workers to exit
	}
	s.log.Infof("serve.stop", "pool stopped")
	s.log.Close()
	if killed {
		return fmt.Errorf("serve: drain deadline passed, unfinished jobs canceled")
	}
	return nil
}
