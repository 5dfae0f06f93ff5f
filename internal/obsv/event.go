package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Structured event log: the streaming counterpart of the metrics
// registry. The registry answers "what are the levels now"; the event
// log answers "what just happened" — one JSON object per line, leveled
// and rate-limited, with a fixed-size flight recorder of the most
// recent events for post-mortem dumps.
//
// Producers (the deriver, solvers, sweep engine and simulator) emit
// through nil-safe methods, so pipelines carry an optional *EventLog
// exactly the way they carry an optional *Registry. Consumers attach
// in three ways: a JSON-lines sink (the CLIs' -events flag), the
// /events HTTP endpoint (SSE and long-poll, debug.go), and the
// flight-recorder dump embedded into run manifests on failure.

// Level classifies an event's severity.
type Level int8

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	numLevels = 4
)

// String returns the lowercase level name used in the JSON encoding.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// ParseLevel inverts Level.String.
func ParseLevel(s string) (Level, bool) {
	switch s {
	case "debug":
		return LevelDebug, true
	case "info":
		return LevelInfo, true
	case "warn":
		return LevelWarn, true
	case "error":
		return LevelError, true
	}
	return 0, false
}

// Event is one structured log record. Fields hold the numeric payload
// (counts, rates, durations in seconds); Msg carries free text only
// where a number cannot (error strings). Seq increases by one per
// event accepted by the log, which gives /events consumers a resume
// cursor and makes recorder dumps tamper-evident in tests.
type Event struct {
	Seq    uint64             `json:"seq"`
	TS     string             `json:"ts"` // RFC 3339 with nanoseconds
	Level  string             `json:"level"`
	Kind   string             `json:"kind"` // dotted, e.g. "derive.level"
	Msg    string             `json:"msg,omitempty"`
	Fields map[string]float64 `json:"fields,omitempty"`
}

// DefaultRecorderSize is the flight-recorder capacity when
// EventLogConfig.RecorderSize is zero: enough to cover the tail of a
// long run without bloating failure manifests.
const DefaultRecorderSize = 256

// EventLogConfig configures NewEventLog.
type EventLogConfig struct {
	// Sink, when non-nil, receives one JSON object per line for every
	// accepted event. Writes happen under the log's mutex, in event
	// order. Write errors are counted, not returned: telemetry must
	// never fail the computation it observes.
	Sink io.Writer
	// MinLevel drops events below this level entirely (they are not
	// counted, recorded or streamed). Default LevelDebug keeps all.
	MinLevel Level
	// MinInterval rate-limits debug- and info-level events per kind: a
	// second event of the same kind within MinInterval of the last
	// accepted one is dropped (counted in Dropped). Warnings and
	// errors are never rate-limited. Zero disables limiting.
	MinInterval time.Duration
	// RecorderSize is the flight-recorder capacity (default
	// DefaultRecorderSize). The recorder always keeps the most recent
	// accepted events regardless of sink and subscribers.
	RecorderSize int
}

// EventLog is a concurrency-safe structured event stream. All methods
// are safe on a nil receiver (no-ops / zero values), so producers can
// thread an optional log without nil checks at every site.
type EventLog struct {
	mu       sync.Mutex
	cond     *sync.Cond // broadcast on every accepted event
	cfg      EventLogConfig
	now      func() time.Time // test seam
	seq      uint64
	byLevel  [numLevels]int64
	dropped  int64 // rate-limited or below MinLevel
	sinkErrs int64
	lastKind map[string]time.Time
	ring     []Event // flight recorder, len == cap once warm
	ringNext int     // next slot to overwrite
	closed   bool
}

// NewEventLog builds an event log. The zero-value config is valid:
// no sink, keep everything, no rate limit, default recorder.
func NewEventLog(cfg EventLogConfig) *EventLog {
	if cfg.RecorderSize <= 0 {
		cfg.RecorderSize = DefaultRecorderSize
	}
	l := &EventLog{
		cfg:      cfg,
		now:      time.Now,
		lastKind: make(map[string]time.Time),
		ring:     make([]Event, 0, cfg.RecorderSize),
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Emit records one event. Nil-safe; cheap when the event is dropped by
// level or rate limit. The fields map is stored as-is, so callers must
// not mutate it afterwards.
func (l *EventLog) Emit(level Level, kind, msg string, fields map[string]float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.closed || level < l.cfg.MinLevel {
		if !l.closed {
			l.dropped++
		}
		l.mu.Unlock()
		return
	}
	now := l.now()
	if l.cfg.MinInterval > 0 && level < LevelWarn {
		if last, ok := l.lastKind[kind]; ok && now.Sub(last) < l.cfg.MinInterval {
			l.dropped++
			l.mu.Unlock()
			return
		}
		l.lastKind[kind] = now
	}
	l.seq++
	ev := Event{
		Seq:    l.seq,
		TS:     now.UTC().Format(time.RFC3339Nano),
		Level:  level.String(),
		Kind:   kind,
		Msg:    msg,
		Fields: fields,
	}
	if level >= 0 && int(level) < numLevels {
		l.byLevel[level]++
	}
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, ev)
	} else {
		l.ring[l.ringNext] = ev
		l.ringNext = (l.ringNext + 1) % len(l.ring)
	}
	if l.cfg.Sink != nil {
		b, err := json.Marshal(ev)
		if err == nil {
			_, err = l.cfg.Sink.Write(append(b, '\n'))
		}
		if err != nil {
			l.sinkErrs++
		}
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Infof, Warnf and Errorf are sprintf conveniences for events whose
// payload is a message rather than numbers.
func (l *EventLog) Infof(kind, format string, args ...any) {
	l.Emit(LevelInfo, kind, fmt.Sprintf(format, args...), nil)
}
func (l *EventLog) Warnf(kind, format string, args ...any) {
	l.Emit(LevelWarn, kind, fmt.Sprintf(format, args...), nil)
}
func (l *EventLog) Errorf(kind, format string, args ...any) {
	l.Emit(LevelError, kind, fmt.Sprintf(format, args...), nil)
}

// Seq returns the sequence number of the most recent accepted event.
func (l *EventLog) Seq() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Close wakes all blocked consumers and makes further Emits no-ops.
// The sink is not closed (the caller owns it).
func (l *EventLog) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Recorder returns a copy of the flight-recorder contents, oldest
// first. The recorder holds the most recent accepted events up to the
// configured capacity.
func (l *EventLog) Recorder() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recorderLocked()
}

func (l *EventLog) recorderLocked() []Event {
	out := make([]Event, 0, len(l.ring))
	if len(l.ring) < cap(l.ring) {
		out = append(out, l.ring...)
	} else {
		out = append(out, l.ring[l.ringNext:]...)
		out = append(out, l.ring[:l.ringNext]...)
	}
	return out
}

// After returns events with Seq > since, oldest first, limited to the
// recorder's reach (events older than the recorder window are gone).
// A second return of false means the log has been closed and no event
// past since will ever arrive. No program path calls it: tests read
// the events a run emitted through it, without Wait's blocking.
func (l *EventLog) After(since uint64) ([]Event, bool) {
	if l == nil {
		return nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, ev := range l.recorderLocked() {
		if ev.Seq > since {
			out = append(out, ev)
		}
	}
	return out, !l.closed
}

// Wait blocks until an event with Seq > since exists or the deadline
// passes or the log closes, then returns like After. It is the
// long-poll primitive behind the /events endpoint.
func (l *EventLog) Wait(since uint64, timeout time.Duration) ([]Event, bool) {
	if l == nil {
		return nil, false
	}
	deadline := time.Now().Add(timeout)
	// cond has no timed wait; a timer broadcast bounds the sleep.
	timer := time.AfterFunc(timeout, func() {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	defer timer.Stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.seq <= since && !l.closed && time.Now().Before(deadline) {
		l.cond.Wait()
	}
	var out []Event
	for _, ev := range l.recorderLocked() {
		if ev.Seq > since {
			out = append(out, ev)
		}
	}
	return out, !l.closed
}

// EventLogRecord is the manifest-embedded accounting of an event log:
// totals per level, how much the rate limiter dropped, and the flight
// recorder contents at the time of the dump. See docs/MANIFEST.md.
type EventLogRecord struct {
	Emitted  int64            `json:"emitted"`
	Dropped  int64            `json:"dropped,omitempty"`
	SinkErrs int64            `json:"sink_errors,omitempty"`
	ByLevel  map[string]int64 `json:"by_level,omitempty"`
	Sink     string           `json:"sink,omitempty"` // the -events path, when any
	Recorder []Event          `json:"recorder,omitempty"`
}

// Record snapshots the log for a manifest. Nil-safe (returns nil so
// the manifest section is omitted entirely).
func (l *EventLog) Record(sinkPath string) *EventLogRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := &EventLogRecord{
		Dropped:  l.dropped,
		SinkErrs: l.sinkErrs,
		Sink:     sinkPath,
		Recorder: l.recorderLocked(),
		ByLevel:  make(map[string]int64),
	}
	for lv := Level(0); lv < numLevels; lv++ {
		if n := l.byLevel[lv]; n > 0 {
			rec.ByLevel[lv.String()] = n
			rec.Emitted += n
		}
	}
	return rec
}

// DumpRecorder writes the flight-recorder contents as aligned text —
// the post-mortem block the CLIs print to stderr when a run fails or
// is interrupted. Nil-safe; quiet when the recorder is empty.
func (l *EventLog) DumpRecorder(w io.Writer) {
	evs := l.Recorder()
	if len(evs) == 0 {
		return
	}
	fmt.Fprintf(w, "flight recorder (last %d events):\n", len(evs))
	for _, ev := range evs {
		fmt.Fprintf(w, "  %s %-5s %-20s %s%s\n", ev.TS, ev.Level, ev.Kind, ev.Msg, formatFields(ev.Fields))
	}
}

// formatFields renders a fields map deterministically (sorted keys).
func formatFields(fields map[string]float64) string {
	if len(fields) == 0 {
		return ""
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteByte(' ')
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(formatFloat(fields[k]))
	}
	return sb.String()
}

// DumpOnSignal installs a handler that, on the first of the given
// signals (SIGINT and SIGTERM when none are passed), dumps the flight
// recorder to w and exits with status 1. It returns a stop function
// that uninstalls the handler; the CLIs defer it so normal completion
// leaves signal disposition untouched.
func (l *EventLog) DumpOnSignal(w io.Writer, sigs ...os.Signal) (stop func()) {
	return l.dumpOnSignal(w, func(code int) { os.Exit(code) }, sigs...)
}

func (l *EventLog) dumpOnSignal(w io.Writer, exit func(int), sigs ...os.Signal) (stop func()) {
	if l == nil {
		return func() {}
	}
	if len(sigs) == 0 {
		sigs = []os.Signal{os.Interrupt, syscall.SIGTERM}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, sigs...)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-ch:
			fmt.Fprintf(w, "received %v; dumping flight recorder\n", sig)
			l.DumpRecorder(w)
			exit(1)
		case <-done:
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			signal.Stop(ch)
			close(done)
		})
	}
}
