package obsv

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestEventLogJSONLinesSink(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(EventLogConfig{Sink: &buf})
	l.Emit(LevelInfo, "derive.level", "", map[string]float64{"level": 3, "states": 120})
	l.Errorf("derive.error", "boom %d", 7)
	l.Close()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink lines = %d:\n%s", len(lines), buf.String())
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if ev.Seq != 1 || ev.Level != "info" || ev.Kind != "derive.level" || ev.Fields["states"] != 120 {
		t.Fatalf("event 0: %+v", ev)
	}
	if _, err := time.Parse(time.RFC3339Nano, ev.TS); err != nil {
		t.Fatalf("bad timestamp %q: %v", ev.TS, err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 2 || ev.Level != "error" || ev.Msg != "boom 7" {
		t.Fatalf("event 1: %+v", ev)
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Emit(LevelInfo, "x.y", "", nil) // must not panic
	l.Infof("x.y", "hi")
	l.Close()
	if l.Seq() != 0 || l.Recorder() != nil || l.Record("") != nil {
		t.Fatal("nil log must read as empty")
	}
	if evs, ok := l.After(0); evs != nil || ok {
		t.Fatal("nil log After must be empty/closed")
	}
	l.DumpRecorder(os.Stderr)
	stop := l.DumpOnSignal(os.Stderr)
	stop()
}

func TestEventLogLevelsAndRateLimit(t *testing.T) {
	now := time.Unix(0, 0)
	l := NewEventLog(EventLogConfig{MinLevel: LevelInfo, MinInterval: time.Second})
	l.now = func() time.Time { return now }

	l.Emit(LevelDebug, "a.b", "", nil) // below MinLevel
	l.Emit(LevelInfo, "a.b", "", nil)  // accepted
	l.Emit(LevelInfo, "a.b", "", nil)  // rate-limited (same instant)
	now = now.Add(500 * time.Millisecond)
	l.Emit(LevelInfo, "a.b", "", nil) // still inside the window
	l.Emit(LevelWarn, "a.b", "", nil) // warnings are never limited
	now = now.Add(600 * time.Millisecond)
	l.Emit(LevelInfo, "a.b", "", nil) // window expired
	l.Emit(LevelInfo, "c.d", "", nil) // different kind, own window

	rec := l.Record("")
	if rec.Emitted != 4 {
		t.Fatalf("emitted = %d, want 4 (%+v)", rec.Emitted, rec)
	}
	if rec.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3 (%+v)", rec.Dropped, rec)
	}
	if rec.ByLevel["info"] != 3 || rec.ByLevel["warn"] != 1 {
		t.Fatalf("by_level: %+v", rec.ByLevel)
	}
}

func TestEventLogFlightRecorderWraps(t *testing.T) {
	l := NewEventLog(EventLogConfig{RecorderSize: 4})
	for i := 0; i < 10; i++ {
		l.Emit(LevelInfo, "k.v", "", map[string]float64{"i": float64(i)})
	}
	rec := l.Recorder()
	if len(rec) != 4 {
		t.Fatalf("recorder length = %d, want 4", len(rec))
	}
	for i, ev := range rec {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("recorder[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
	var buf bytes.Buffer
	l.DumpRecorder(&buf)
	if !strings.Contains(buf.String(), "flight recorder (last 4 events)") || !strings.Contains(buf.String(), "i=9") {
		t.Fatalf("dump:\n%s", buf.String())
	}
}

func TestEventLogAfterAndWait(t *testing.T) {
	l := NewEventLog(EventLogConfig{})
	l.Emit(LevelInfo, "a.b", "", nil)
	l.Emit(LevelInfo, "a.b", "", nil)
	evs, open := l.After(1)
	if !open || len(evs) != 1 || evs[0].Seq != 2 {
		t.Fatalf("After(1) = %+v open=%v", evs, open)
	}

	// Wait must block until a new event arrives.
	var wg sync.WaitGroup
	wg.Add(1)
	var got []Event
	go func() {
		defer wg.Done()
		got, _ = l.Wait(2, 5*time.Second)
	}()
	time.Sleep(20 * time.Millisecond)
	l.Emit(LevelInfo, "a.b", "", nil)
	wg.Wait()
	if len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("Wait = %+v", got)
	}

	// Wait returns promptly with nothing on timeout.
	start := time.Now()
	evs, open = l.Wait(3, 50*time.Millisecond)
	if len(evs) != 0 || !open {
		t.Fatalf("timed-out Wait = %+v open=%v", evs, open)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("Wait did not respect its timeout")
	}

	// Close unblocks waiters and reports closed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, open = l.Wait(3, 5*time.Second)
	}()
	time.Sleep(20 * time.Millisecond)
	l.Close()
	wg.Wait()
	if open {
		t.Fatal("Wait after Close must report closed")
	}
}

func TestEventLogDumpOnSignal(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(EventLogConfig{})
	l.Emit(LevelError, "x.fail", "it broke", nil)

	exited := make(chan int, 1)
	stop := l.dumpOnSignal(&buf, func(code int) { exited <- code }, syscall.SIGUSR1)
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exited:
		if code != 1 {
			t.Fatalf("exit code = %d, want 1", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("signal handler did not fire")
	}
	if !strings.Contains(buf.String(), "x.fail") || !strings.Contains(buf.String(), "flight recorder") {
		t.Fatalf("dump:\n%s", buf.String())
	}
}

func TestHeartbeatBeats(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(EventLogConfig{})
	h := NewHeartbeat(30*time.Millisecond, &buf, l)
	h.SetTotal(1000)
	h.Start()
	for i := 1; i <= 5; i++ {
		h.ObserveProgress(Progress{Phase: "derive", Step: i, Count: i * 100, Value: float64(i)})
		time.Sleep(25 * time.Millisecond)
	}
	h.Stop()
	h.Stop() // idempotent

	out := buf.String()
	if !strings.Contains(out, "phase=derive") || !strings.Contains(out, "rate=") {
		t.Fatalf("heartbeat lines:\n%s", out)
	}
	// The final beat lands in the event log as heartbeat.final with an
	// elapsed field; intermediate beats as "heartbeat".
	evs := l.Recorder()
	var sawBeat, sawFinal bool
	for _, ev := range evs {
		switch ev.Kind {
		case "heartbeat":
			sawBeat = true
		case "heartbeat.final":
			sawFinal = true
			if ev.Fields["count"] != 500 {
				t.Fatalf("final beat fields: %+v", ev.Fields)
			}
		}
	}
	if !sawBeat || !sawFinal {
		t.Fatalf("events: beat=%v final=%v (%+v)", sawBeat, sawFinal, evs)
	}
}

func TestHeartbeatNilSafe(t *testing.T) {
	var h *Heartbeat
	h.Start()
	h.ObserveProgress(Progress{})
	h.SetTotal(1)
	h.Stop()
}

func TestHeartbeatQuietWithoutProgress(t *testing.T) {
	var buf bytes.Buffer
	h := NewHeartbeat(10*time.Millisecond, &buf, nil)
	h.Start()
	time.Sleep(35 * time.Millisecond)
	h.mu.Lock()
	stop, done := h.stop, h.done
	h.stop, h.done = nil, nil
	h.mu.Unlock()
	close(stop)
	<-done // plain stop without the final beat
	if buf.Len() != 0 {
		t.Fatalf("heartbeat printed before any progress:\n%s", buf.String())
	}
}
