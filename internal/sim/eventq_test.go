package sim

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// modelQueue is the sorted-slice oracle: a plain slice kept in (at, seq)
// order. Obviously correct, O(n) everywhere.
type modelQueue struct {
	evs []*event
}

func (m *modelQueue) push(e *event) {
	i, _ := slices.BinarySearchFunc(m.evs, e, func(a, b *event) int {
		if eventLess(a, b) {
			return -1
		}
		return 1
	})
	m.evs = slices.Insert(m.evs, i, e)
}

func (m *modelQueue) pop() *event {
	if len(m.evs) == 0 {
		return nil
	}
	e := m.evs[0]
	m.evs = m.evs[1:]
	return e
}

func (m *modelQueue) len() int { return len(m.evs) }

// queuesUnderTest returns fresh instances of every production core.
func queuesUnderTest() map[string]eventQueue {
	return map[string]eventQueue{
		"calendar": newCalendarQueue(),
		"heap":     newHeapQueue(),
	}
}

// TestEventQueueRandomOps drives each core and the model oracle through
// the same random interleaving of push and pop and requires identical
// results at every step. Popped events are pushed again with new times,
// as the System recycles them, so a core that kept a pointer to an
// event after popping it would see that event change under it.
func TestEventQueueRandomOps(t *testing.T) {
	for name, q := range queuesUnderTest() {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				rng := rand.New(rand.NewPCG(uint64(trial), 0x5eed))
				model := &modelQueue{}
				var free []*event // popped events, reused by later pushes
				seq := 0
				for op := 0; op < 3000; op++ {
					if rng.Float64() < 0.6 {
						// Push. Times cluster to force same-at collisions and
						// occasionally jump far ahead (sparse calendar laps).
						at := float64(rng.IntN(40))
						if rng.IntN(10) == 0 {
							at *= 1e6
						}
						e := &event{}
						if k := len(free); k > 0 {
							e, free = free[k-1], free[:k-1]
						}
						*e = event{at: at, seq: seq}
						seq++
						q.push(e)
						model.push(e)
					} else {
						got, want := q.pop(), model.pop()
						if got != want {
							t.Fatalf("trial %d op %d: pop mismatch: got %+v want %+v", trial, op, got, want)
						}
						if got != nil {
							free = append(free, got)
						}
					}
					if q.len() != model.len() {
						t.Fatalf("trial %d op %d: len mismatch: got %d want %d", trial, op, q.len(), model.len())
					}
				}
				// Drain: remaining order must match exactly.
				for {
					got, want := q.pop(), model.pop()
					if got != want {
						t.Fatalf("trial %d drain: pop mismatch: got %+v want %+v", trial, got, want)
					}
					if got == nil {
						break
					}
				}
			}
		})
	}
}

// TestEventQueueTieBreak pins the same-timestamp order: events pushed at
// an identical time must come out in scheduling-sequence order, whatever
// order they were pushed in.
func TestEventQueueTieBreak(t *testing.T) {
	for name, q := range queuesUnderTest() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(7, 7))
			const n = 200
			evs := make([]*event, n)
			for i := range evs {
				evs[i] = &event{at: 3.25, seq: i}
			}
			// Push in a random permutation; also interleave a few events at
			// other times so the tied block is not alone in its bucket.
			for _, i := range rng.Perm(n) {
				q.push(evs[i])
				if i%17 == 0 {
					q.push(&event{at: float64(i), seq: n + i})
				}
			}
			prev := -1
			for q.len() > 0 {
				e := q.pop()
				if e.at == 3.25 { //vet:allow floatcmp: exact sentinel time set by the test
					if e.seq <= prev {
						t.Fatalf("tie-break violated: seq %d after %d", e.seq, prev)
					}
					prev = e.seq
				}
			}
			if prev != n-1 {
				t.Fatalf("did not drain all tied events: last seq %d", prev)
			}
		})
	}
}

// TestCalendarQueueResizeStress grows the population far past several
// doublings, then drains through the shrink path, checking strict order
// throughout.
func TestCalendarQueueResizeStress(t *testing.T) {
	q := newCalendarQueue()
	rng := rand.New(rand.NewPCG(11, 13))
	const n = 5000
	for i := 0; i < n; i++ {
		q.push(&event{at: rng.Float64() * 1000, seq: i})
	}
	if q.len() != n {
		t.Fatalf("len = %d, want %d", q.len(), n)
	}
	var prev *event
	for i := 0; i < n; i++ {
		e := q.pop()
		if e == nil {
			t.Fatalf("queue dry after %d pops, want %d", i, n)
		}
		if prev != nil && !eventLess(prev, e) {
			t.Fatalf("order violated at pop %d: (%g,%d) after (%g,%d)", i, e.at, e.seq, prev.at, prev.seq)
		}
		prev = e
	}
	if e := q.pop(); e != nil {
		t.Fatalf("expected empty queue, got %+v", e)
	}
}

// TestCalendarQueueSparse exercises the direct-search fallback: events
// spread over an enormous horizon so a calendar lap finds nothing.
func TestCalendarQueueSparse(t *testing.T) {
	q := newCalendarQueue()
	ats := []float64{0, 1e-9, 1, 1e6, 1e12, 1e18, 2e18}
	for i := len(ats) - 1; i >= 0; i-- { // push far-future first
		q.push(&event{at: ats[i], seq: i})
	}
	for i, want := range ats {
		e := q.pop()
		if e == nil || e.at != want { //vet:allow floatcmp: exact times set by the test
			t.Fatalf("pop %d: got %+v, want at=%g", i, e, want)
		}
	}
}

// TestCalendarQueueInterleavedReuse reuses one queue across fill/drain
// cycles, as the replication runner does with fresh Systems — the cursor
// must rewind when a later cycle pushes earlier times.
func TestCalendarQueueInterleavedReuse(t *testing.T) {
	q := newCalendarQueue()
	seq := 0
	for cycle := 0; cycle < 5; cycle++ {
		base := float64(cycle * 100)
		for i := 0; i < 50; i++ {
			q.push(&event{at: base + float64(50-i), seq: seq})
			seq++
		}
		// Drain half, leaving the rest to mix with the next cycle.
		for i := 0; i < 25; i++ {
			if q.pop() == nil {
				t.Fatalf("cycle %d: premature dry", cycle)
			}
		}
	}
	var prev *event
	for {
		e := q.pop()
		if e == nil {
			break
		}
		if prev != nil && !eventLess(prev, e) {
			t.Fatalf("order violated: (%g,%d) after (%g,%d)", e.at, e.seq, prev.at, prev.seq)
		}
		prev = e
	}
}
