package sim

import (
	"math"
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

// TestEventQueuePopBefore drives each core as Run does: one outside
// event (the pending arrival) is merged with the queue through
// popBefore, each processed event schedules up to two more at or after
// its time, and a processed outside event is replaced by the next. The
// merged drain must equal a sort of every event by (at, seq). The
// populations cover exact time ties (between queued events and with
// the outside event), a horizon so sparse that a calendar lap finds
// nothing and pop falls back to the direct search, and times at and
// past calMaxWindow, where windows are capped and lump together.
func TestEventQueuePopBefore(t *testing.T) {
	cap60 := float64(calMaxWindow)
	offsets := map[string]func(rng *rand.Rand) float64{
		"ties": func(rng *rand.Rand) float64 { return float64(rng.IntN(3)) },
		"sparse": func(rng *rand.Rand) float64 {
			return math.Ldexp(rng.Float64(), rng.IntN(40)-8)
		},
		// Mostly small offsets, so a resize of a large population
		// samples a narrow head and must widen the windows to keep the
		// farthest event below the cap.
		"max-window": func(rng *rand.Rand) float64 {
			switch rng.IntN(8) {
			case 0:
				return cap60 * (1 + float64(rng.IntN(9)-4)*0x1p-52)
			case 1:
				return cap60 * float64(1+rng.IntN(1e6))
			case 2, 3, 4:
				return float64(rng.IntN(3))
			}
			return rng.Float64()
		},
	}
	for name, newQueue := range map[string]func() eventQueue{
		"calendar": func() eventQueue { return newCalendarQueue() },
		"heap":     func() eventQueue { return newHeapQueue() },
	} {
		for pop, offset := range offsets {
			t.Run(name+"/"+pop, func(t *testing.T) {
				for trial := 0; trial < 20; trial++ {
					rng := rand.New(rand.NewPCG(uint64(trial), 0xbef0))
					q := newQueue()
					var all, drain []*event
					seq := 0
					schedule := func(at float64) *event {
						e := &event{at: at, seq: seq}
						seq++
						all = append(all, e)
						return e
					}
					for i := rng.IntN(200); i > 0; i-- {
						q.push(schedule(offset(rng)))
					}
					x := schedule(offset(rng))
					for step, steps := 0, 500+rng.IntN(1000); step < steps || x != nil; step++ {
						var e *event
						if x == nil {
							if e = q.pop(); e == nil {
								break
							}
						} else if e = q.popBefore(x); e == nil {
							e, x = x, nil
						}
						drain = append(drain, e)
						for i := rng.IntN(3); i > 0; i-- {
							q.push(schedule(e.at + offset(rng)))
						}
						if x == nil && step < steps {
							x = schedule(e.at + offset(rng))
						}
					}
					for e := q.pop(); e != nil; e = q.pop() {
						drain = append(drain, e)
					}
					want := slices.Clone(all)
					slices.SortFunc(want, func(a, b *event) int {
						if eventLess(a, b) {
							return -1
						}
						return 1
					})
					if len(drain) != len(want) {
						t.Fatalf("trial %d: drained %d events, scheduled %d", trial, len(drain), len(want))
					}
					for i := range want {
						if drain[i] != want[i] {
							t.Fatalf("trial %d: event %d is (%g,%d), want (%g,%d)",
								trial, i, drain[i].at, drain[i].seq, want[i].at, want[i].seq)
						}
					}
				}
			})
		}
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

// TestCalendarQueueSubnormalSpacing resizes over events a subnormal
// time apart: the sampled width has no finite reciprocal, so the
// calendar must fall back to width 1 rather than multiply a time of 0
// by +Inf.
func TestCalendarQueueSubnormalSpacing(t *testing.T) {
	q := newCalendarQueue()
	const n = 40
	for i := n - 1; i >= 0; i-- {
		q.push(&event{at: float64(i) * math.SmallestNonzeroFloat64, seq: i})
	}
	if math.IsInf(q.inv, 0) || math.IsNaN(q.inv) {
		t.Fatalf("inv = %g after resize", q.inv)
	}
	for i := 0; i < n; i++ {
		if e := q.pop(); e == nil || e.seq != i {
			t.Fatalf("pop %d: got %+v, want seq %d", i, e, i)
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
