package sweep

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pepatags/internal/approx"
	"pepatags/internal/core"
	"pepatags/internal/linalg"
	"pepatags/internal/obsv"
)

// Metric names registered by the sweep engine (metricname analyzer,
// tools/govet-suite).
const (
	metricPointsTotal   = "sweep.points_total"
	metricPointsResumed = "sweep.points_resumed"
	metricPointsDone    = "sweep.points_done"
	metricPointSeconds  = "sweep.point_seconds"
	metricCacheHits     = "sweep.cache_hits"
	metricCacheMisses   = "sweep.cache_misses"
)

// ErrCanceled is returned (wrapped) by Run when the Cancel channel
// closes before every point has been solved. The journal keeps the
// completed prefix, so a canceled run resumes exactly like a killed
// one.
var ErrCanceled = errors.New("sweep: run canceled")

// Options configure one engine run.
type Options struct {
	// Workers is the size of the solve pool; <= 1 runs serially.
	Workers int
	// Cache, when non-nil, is used instead of a fresh per-run cache, so
	// long-running callers (the pepad daemon) share derived state
	// spaces across runs. RunResult.CacheHits/CacheMisses then report
	// the deltas this run contributed, not the cache's lifetime totals.
	Cache *Cache
	// Cancel, when non-nil, aborts the run when closed: in-flight
	// points finish, no further points start, and Run returns an error
	// wrapping ErrCanceled.
	Cancel <-chan struct{}
	// Journal is the path of the append-only result journal; empty
	// disables journaling (results are only returned in memory).
	Journal string
	// Resume continues an interrupted journal instead of starting
	// fresh: completed rows are loaded, the partial trailing line (if
	// the process died mid-write) is truncated, and only the remaining
	// points run.
	Resume bool
	// Registry receives sweep counters and histograms when set.
	Registry *obsv.Registry
	// Span, when set, gets child spans for the run's phases.
	Span *obsv.Span
	// Events, when set, receives "sweep.start" (info), per-point
	// "sweep.point" debug events (point seq, series, elapsed, running
	// cache hit-rate), and "sweep.done"/"sweep.error" at the end.
	Events *obsv.EventLog
	// Progress, when set, is called after every completed point with
	// Phase "sweep", Count = points finished (including resumed) and
	// Value = the running cache hit-rate; the CLIs hang a Heartbeat
	// here for -progress. Called concurrently from the worker pool, so
	// the callback must be safe for concurrent use (Heartbeat is).
	Progress obsv.ProgressFunc
}

// RunResult is the outcome of a sweep: every row (resumed and freshly
// solved) in point order, plus run accounting.
type RunResult struct {
	Spec     *Spec
	SpecHash string
	Points   []Point
	Rows     []Row
	// Resumed counts rows loaded from the journal rather than solved.
	Resumed int
	// CacheHits/CacheMisses count skeleton-cache lookups; one miss per
	// distinct model shape, hits for every further same-shape solve.
	CacheHits, CacheMisses int64
	Elapsed                time.Duration
}

// Run evaluates the spec: expands the point grid, fans the points over
// the worker pool, and streams one journal row per completed point in
// point order. Solving is deterministic, journal rows are written in
// seq order, and the header carries no timestamps, so the journal
// bytes are a pure function of the spec — independent of worker count,
// scheduling, and how many times the sweep was interrupted and
// resumed.
func Run(spec *Spec, opt Options) (*RunResult, error) {
	start := time.Now()
	span := opt.Span
	child := func(name string) *obsv.Span {
		if span == nil {
			return nil
		}
		return span.Child(name)
	}
	end := func(s *obsv.Span) {
		if s != nil {
			s.End()
		}
	}

	sp := child("expand")
	points, hash, err := spec.Resolve()
	end(sp)
	if err != nil {
		opt.Events.Errorf("sweep.error", "%v", err)
		return nil, err
	}

	res := &RunResult{Spec: spec, SpecHash: hash, Points: points}
	hdr := journalHeader{Schema: JournalSchema, Name: spec.Name, SpecSHA256: hash, Points: len(points)}

	var jw *journalWriter
	done := make(map[int]Row)
	if opt.Journal != "" {
		sp := child("journal")
		if opt.Resume {
			var prev []Row
			jw, prev, err = resumeJournal(opt.Journal, hdr)
			if err != nil {
				end(sp)
				opt.Events.Errorf("sweep.error", "%v", err)
				return nil, err
			}
			for _, r := range prev {
				done[r.Seq] = r
			}
			res.Resumed = len(prev)
		} else {
			jw, err = createJournal(opt.Journal, hdr)
			if err != nil {
				end(sp)
				opt.Events.Errorf("sweep.error", "%v", err)
				return nil, err
			}
		}
		end(sp)
	}

	cache := opt.Cache
	if cache == nil {
		cache = NewCache()
	}
	hits0, misses0 := cache.Hits(), cache.Misses()
	var pointSeconds *obsv.Histogram
	if opt.Registry != nil {
		opt.Registry.Counter(metricPointsTotal).Add(int64(len(points)))
		opt.Registry.Counter(metricPointsResumed).Add(int64(res.Resumed))
		pointSeconds = opt.Registry.Histogram(metricPointSeconds)
	}

	var todo []int
	for i := range points {
		if _, ok := done[i]; !ok {
			todo = append(todo, i)
		}
	}

	sp = child("solve")
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(todo) && len(todo) > 0 {
		workers = len(todo)
	}
	if opt.Events != nil {
		opt.Events.Emit(obsv.LevelInfo, "sweep.start", spec.Name, map[string]float64{
			"points":  float64(len(points)),
			"resumed": float64(res.Resumed),
			"workers": float64(workers),
		})
	}
	hitRate := func() float64 {
		h, m := cache.Hits()-hits0, cache.Misses()-misses0
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	}

	var (
		mu       sync.Mutex
		firstErr error
		rows     = make([]Row, 0, len(todo))
	)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range jobs {
				t0 := time.Now()
				meas, err := evalPoint(cache, points[seq])
				if pointSeconds != nil {
					pointSeconds.Observe(time.Since(t0).Seconds())
				}
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("sweep: point %d (series %q, x=%g): %w", seq, points[seq].Series, points[seq].X, err)
					}
				} else {
					r := Row{Seq: seq, Series: points[seq].Series, X: points[seq].X, Measures: meas}
					rows = append(rows, r)
					// Persist immediately: the writer holds out-of-order
					// rows and appends in seq order, so a kill at any
					// instant leaves a clean resumable prefix.
					if jw != nil {
						if werr := jw.write(r); werr != nil && firstErr == nil {
							firstErr = fmt.Errorf("sweep: journal write: %w", werr)
						}
					}
				}
				finished := res.Resumed + len(rows)
				mu.Unlock()
				if err == nil {
					rate := hitRate()
					if opt.Events != nil {
						opt.Events.Emit(obsv.LevelDebug, "sweep.point", points[seq].Series, map[string]float64{
							"seq":            float64(seq),
							"x":              points[seq].X,
							"elapsed_s":      time.Since(t0).Seconds(),
							"done":           float64(finished),
							"cache_hit_rate": rate,
						})
					}
					if opt.Progress != nil {
						opt.Progress(obsv.Progress{Phase: "sweep", Step: seq, Count: finished, Value: rate})
					}
				}
			}
		}()
	}
dispatch:
	for _, seq := range todo {
		mu.Lock()
		stop := firstErr != nil
		mu.Unlock()
		if stop {
			break
		}
		if opt.Cancel != nil {
			canceled := false
			// Check Cancel on its own first: when both it and a worker
			// are ready, a two-way select picks at random, so a job
			// canceled before dispatch could still leak points.
			select {
			case <-opt.Cancel:
				canceled = true
			default:
				select {
				case <-opt.Cancel:
					canceled = true
				case jobs <- seq:
				}
			}
			if canceled {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("%w after %d of %d points", ErrCanceled, res.Resumed+len(rows), len(points))
				}
				mu.Unlock()
				break dispatch
			}
		} else {
			jobs <- seq
		}
	}
	close(jobs)
	wg.Wait()
	end(sp)

	res.CacheHits, res.CacheMisses = cache.Hits()-hits0, cache.Misses()-misses0
	if opt.Registry != nil {
		opt.Registry.Counter(metricCacheHits).Add(res.CacheHits)
		opt.Registry.Counter(metricCacheMisses).Add(res.CacheMisses)
		opt.Registry.Counter(metricPointsDone).Add(int64(len(rows)))
	}

	// Merge resumed and fresh rows in seq order and persist the fresh
	// ones. The writer enforces in-order appends, so on failure the
	// journal keeps the completed prefix and a later -resume picks up
	// exactly there.
	for _, r := range done {
		res.Rows = append(res.Rows, r)
	}
	res.Rows = append(res.Rows, rows...)
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Seq < res.Rows[j].Seq })
	if jw != nil {
		if err := jw.close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("sweep: journal close: %w", err)
		}
	}
	if firstErr != nil {
		opt.Events.Errorf("sweep.error", "%v", firstErr)
		return nil, firstErr
	}
	for i, r := range res.Rows {
		if r.Seq != i {
			err := fmt.Errorf("sweep: internal error: row %d has seq %d", i, r.Seq)
			opt.Events.Errorf("sweep.error", "%v", err)
			return nil, err
		}
	}
	res.Elapsed = time.Since(start)
	if opt.Events != nil {
		opt.Events.Emit(obsv.LevelInfo, "sweep.done", spec.Name, map[string]float64{
			"points":         float64(len(res.Rows)),
			"resumed":        float64(res.Resumed),
			"cache_hits":     float64(res.CacheHits),
			"cache_misses":   float64(res.CacheMisses),
			"elapsed_s":      res.Elapsed.Seconds(),
			"cache_hit_rate": hitRate(),
		})
	}
	return res, nil
}

// parseMetric maps spec metric names onto approx metrics.
func parseMetric(name string) (approx.Metric, error) {
	switch name {
	case "min-queue":
		return approx.MinQueueLength, nil
	case "min-response":
		return approx.MinResponseTime, nil
	case "max-throughput":
		return approx.MaxThroughput, nil
	default:
		return 0, fmt.Errorf("unknown metric %q (want min-queue, min-response or max-throughput)", name)
	}
}

// measureMap flattens core measures into journal form.
func measureMap(m core.Measures) map[string]float64 {
	return map[string]float64{
		"states":        float64(m.States),
		"L1":            m.L1,
		"L2":            m.L2,
		"L":             m.L,
		"X1":            m.X1,
		"X2":            m.X2,
		"throughput":    m.Throughput,
		"loss_arrival":  m.LossArrival,
		"loss_transfer": m.LossTransfer,
		"loss":          m.Loss,
		"W":             m.W,
		"util1":         m.Util1,
		"util2":         m.Util2,
		"timeout_rate":  m.TimeoutRate,
	}
}

// evalPoint solves one point. TAG solves route through the cache; the
// memoryless baselines are cheap and solve directly.
func evalPoint(cache *Cache, p Point) (map[string]float64, error) {
	var (
		m   core.Measures
		err error
	)
	switch p.Model {
	case "tagexp", "tagh2":
		m, err = cache.Analyze(p.tag(p.T))
	case "random", "round-robin", "shortest-queue":
		m, err = p.baseline().Analyze()
	case "opt-t":
		metric, err := parseMetric(p.Metric)
		if err != nil {
			return nil, err
		}
		model := func(t int) core.SkeletonModel { return p.tag(float64(t)) }
		tOpt, m, err := approx.OptimalIntegerTCoarse(continuation(cache, model), metric, p.TLo, p.THi, p.TStep)
		if err != nil {
			return nil, err
		}
		out := measureMap(m)
		out["t_opt"] = float64(tOpt)
		out["t_opt_eff"] = float64(tOpt) / float64(p.N)
		return out, nil
	default:
		return nil, fmt.Errorf("unknown model %q", p.Model)
	}
	if err != nil {
		return nil, err
	}
	return measureMap(m), nil
}

// continuation returns the evaluator of one opt-t search: each
// timeout is solved through its shape's cache entry, with the shape's
// cached structure and pooled buffers, from a start predicted from the
// search's earlier solves (predictor), which for a neighbouring
// timeout is close to the answer and saves solver iterations. While
// the shape stays the same the evaluator keeps its entry and counts a
// hit without looking the shape up again. The start never crosses
// points — every search gets a fresh evaluator — so a row is a pure
// function of its point whatever the worker count or point order.
func continuation(cache *Cache, model func(t int) core.SkeletonModel) approx.Evaluator {
	var (
		pred  predictor
		shape core.Shape
		e     *cacheEntry
	)
	return func(t int) (core.Measures, error) {
		m := model(t)
		// A start only carries over within one state space. The shape
		// can change along the timeout axis: an H2 residual branch
		// probability that rounds to exactly 0 or 1 removes edges.
		if s := m.Shape(); s != shape {
			e, shape, pred = cache.entry(m), s, predictor{}
		} else {
			cache.hits.Add(1)
		}
		opts := linalg.Options{Start: pred.start(t)}
		if cache.observe != nil {
			opts.Stats = new(obsv.SolveStats)
		}
		pi := pred.spare(e.skel.NumStates())
		meas, err := e.solveInto(m.RateValues(), opts, pi)
		if err != nil {
			return core.Measures{}, err
		}
		if cache.observe != nil {
			cache.observe(pi, *opts.Stats)
		}
		pred.add(t, pi)
		return meas, nil
	}
}

// predictor proposes the start of the next solve in a search from the
// last three stationary distributions. When the next timeout continues
// an equally spaced run, it extrapolates them quadratically along
// that run: the error of the start then shrinks with the cube of the
// step rather than linearly, which on the Figure-8 grid saves about a
// tenth of the Krylov iterations over starting from the last π. Any
// other timeout (the search re-evaluating its optimum, say) starts
// from the last π.
type predictor struct {
	t   [3]int       // timeouts of the last three solves, newest first
	pi  [3][]float64 // their stationary distributions
	n   int          // how many of t and pi are set
	buf []float64    // the extrapolated start, reused
}

// start returns the start vector for timeout t; nil before the first
// solve.
func (p *predictor) start(t int) []float64 {
	if p.n < 3 || t-p.t[0] != p.t[0]-p.t[1] || p.t[0]-p.t[1] != p.t[1]-p.t[2] {
		return p.pi[0]
	}
	if len(p.buf) != len(p.pi[0]) {
		p.buf = make([]float64, len(p.pi[0]))
	}
	for i := range p.buf {
		p.buf[i] = 3*p.pi[0][i] - 3*p.pi[1][i] + p.pi[2][i]
	}
	return p.buf
}

// spare returns a vector of n entries for the next solve to write its
// π into: once three solves are held, the one the next add drops.
func (p *predictor) spare(n int) []float64 {
	if p.n < 3 {
		return make([]float64, n)
	}
	return p.pi[2]
}

// add records the solve at timeout t.
func (p *predictor) add(t int, pi []float64) {
	p.t[0], p.t[1], p.t[2] = t, p.t[0], p.t[1]
	p.pi[0], p.pi[1], p.pi[2] = pi, p.pi[0], p.pi[1]
	p.n = min(p.n+1, 3)
}
