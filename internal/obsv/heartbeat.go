package obsv

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Heartbeat turns the fine-grained Progress callbacks the engines
// already emit into periodic, human-meaningful snapshots: every
// Interval it reports the phase, units done, the throughput since the
// last beat (states/sec, points/sec, events/sec — whatever the phase's
// Count measures) and, when a total is known, an ETA.
//
// The write side is cheap and lock-scoped (ObserveProgress stores the
// latest tick under a mutex); the reporting goroutine owns the rate
// arithmetic. Beats go to an optional writer (the CLIs pass stderr for
// -progress) and to an optional event log as "heartbeat" events, which
// is how /events consumers see liveness without scraping.
type Heartbeat struct {
	interval time.Duration
	w        io.Writer // optional human-readable line per beat
	log      *EventLog // optional "heartbeat" events

	mu    sync.Mutex
	phase string
	step  int
	count float64 // units done (monotone within a phase)
	value float64 // phase-specific payload (frontier size, residual, clock)
	total float64 // expected final count; 0 = unknown, no ETA

	start    time.Time
	lastBeat time.Time
	lastDone float64

	stop chan struct{}
	done chan struct{}
}

// DefaultHeartbeatInterval is the -progress-interval default.
const DefaultHeartbeatInterval = 2 * time.Second

// NewHeartbeat builds a heartbeat reporting every interval (default
// DefaultHeartbeatInterval) to w and/or log, either of which may be
// nil. Call Start to begin beating and Stop to end; both are cheap.
func NewHeartbeat(interval time.Duration, w io.Writer, log *EventLog) *Heartbeat {
	if interval <= 0 {
		interval = DefaultHeartbeatInterval
	}
	return &Heartbeat{
		interval: interval,
		w:        w,
		log:      log,
	}
}

// ObserveProgress records the latest engine tick; it is the
// obsv.ProgressFunc the CLIs wire into DeriveOptions, linalg.Options,
// sim.Config and sweep.Options. Nil-safe.
func (h *Heartbeat) ObserveProgress(p Progress) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if p.Phase != h.phase {
		// Phase change resets the rate window so a fast derive does
		// not inflate the first solve beat.
		h.phase = p.Phase
		h.lastDone = float64(p.Count)
		h.lastBeat = time.Now()
	}
	h.step = p.Step
	h.count = float64(p.Count)
	h.value = p.Value
	h.mu.Unlock()
}

// SetTotal registers the expected final count for ETA reporting
// (simulated jobs, sweep points). Zero disables the ETA. Nil-safe.
func (h *Heartbeat) SetTotal(total float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.total = total
	h.mu.Unlock()
}

// Start launches the reporting goroutine. Nil-safe; Start on a
// started heartbeat is a no-op.
func (h *Heartbeat) Start() {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.stop != nil {
		h.mu.Unlock()
		return
	}
	h.start = time.Now()
	h.lastBeat = h.start
	h.stop = make(chan struct{})
	h.done = make(chan struct{})
	stop, done := h.stop, h.done
	h.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(h.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				h.beat(now, false)
			}
		}
	}()
}

// Stop ends reporting, emitting one final beat so short runs still
// produce a summary line. Nil-safe and idempotent.
func (h *Heartbeat) Stop() {
	if h == nil {
		return
	}
	h.mu.Lock()
	stop, done := h.stop, h.done
	h.stop, h.done = nil, nil
	h.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
	h.beat(time.Now(), true)
}

// beat renders one snapshot. final marks the Stop-time beat.
func (h *Heartbeat) beat(now time.Time, final bool) {
	h.mu.Lock()
	if h.phase == "" && !final {
		// Nothing observed yet; stay quiet rather than print zeros.
		h.mu.Unlock()
		return
	}
	dt := now.Sub(h.lastBeat).Seconds()
	rate := 0.0
	if dt > 0 {
		rate = (h.count - h.lastDone) / dt
	}
	h.lastBeat = now
	h.lastDone = h.count
	snap := struct {
		phase        string
		step         int
		count, value float64
		total, rate  float64
		elapsed      time.Duration
	}{h.phase, h.step, h.count, h.value, h.total, rate, now.Sub(h.start)}
	h.mu.Unlock()

	fields := map[string]float64{
		"step":      float64(snap.step),
		"count":     snap.count,
		"value":     snap.value,
		"rate":      snap.rate,
		"elapsed_s": snap.elapsed.Seconds(),
	}
	eta := time.Duration(-1)
	if snap.total > 0 && snap.rate > 0 && snap.count < snap.total {
		eta = time.Duration((snap.total - snap.count) / snap.rate * float64(time.Second))
		fields["eta_s"] = eta.Seconds()
	}
	if h.w != nil {
		line := fmt.Sprintf("progress: phase=%s step=%d done=%.6g rate=%.4g/s value=%.6g elapsed=%v",
			snap.phase, snap.step, snap.count, snap.rate, snap.value, snap.elapsed.Round(time.Millisecond))
		if eta >= 0 {
			line += fmt.Sprintf(" eta=%v", eta.Round(time.Second))
		}
		fmt.Fprintln(h.w, line)
	}
	kind := "heartbeat"
	if final {
		kind = "heartbeat.final"
	}
	h.log.Emit(LevelInfo, kind, snap.phase, fields)
}
