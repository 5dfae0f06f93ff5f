package sim

import (
	"container/heap"
	"slices"
)

// The event core is pluggable so the calendar queue that makes
// thousand-node runs affordable can be pinned, event for event,
// against the original container/heap loop. Both implementations
// order events by the same strict total order — (at, seq), with seq
// the scheduling sequence number — so a correct queue is not merely
// "a" priority order but "the" priority order: swapping cores must
// reproduce bit-identical Metrics. The heap core is retained as the
// differential oracle (Config.ReferenceCore), exactly like the
// string-keyed derivation engine behind pepa.DeriveOptions.Reference.
//
// Neither core keeps a pointer to an event after pop returns it, so
// the System can recycle the event as soon as its handler returns.
// There is no cancel: every scheduled event fires.
type eventQueue interface {
	// push inserts an event. Event times must be non-negative.
	push(*event)
	// pop removes and returns the minimum event by (at, seq), or nil
	// when the queue is empty.
	pop() *event
	// len reports the number of queued events.
	len() int
}

// eventLess is the shared total order: time, then scheduling sequence.
func eventLess(a, b *event) bool {
	if a.at != b.at { //vet:allow floatcmp: event-time tie-break must be exact to keep FIFO order
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ---------------------------------------------------------------
// Reference core: container/heap, the original event loop.

type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// heapQueue adapts eventHeap to the eventQueue interface.
type heapQueue struct {
	h eventHeap
}

func newHeapQueue() *heapQueue { return &heapQueue{} }

func (q *heapQueue) push(e *event) { heap.Push(&q.h, e) }

func (q *heapQueue) pop() *event {
	if q.h.Len() == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}

func (q *heapQueue) len() int { return q.h.Len() }

// ---------------------------------------------------------------
// Calendar queue (Brown 1988): an array of day buckets over a rolling
// year. With the bucket width tracking the mean event spacing, push
// and pop touch O(1) events on the simulator's stationary workloads,
// where container/heap pays O(log n) comparisons through interface
// calls. The structure resizes by powers of two as the population
// grows and shrinks.
//
// The implementation works in integer "windows": window w covers
// times [w*width, (w+1)*width) and maps to bucket w % nbuckets. Both
// push and pop derive the window with the same expression
// (int64(at/width)), so there is no incremental floating-point
// accumulation to drift out of agreement — the invariant the scan
// relies on (no queued event in a window before the cursor) is exact.
// If a full lap of the calendar finds nothing (a sparse far-future
// population), pop falls back to a direct minimum search over bucket
// heads, which is always exact; the windowed scan is an optimisation,
// never the authority.
type calendarQueue struct {
	buckets []bucket
	width   float64 // window width (time units per bucket)
	window  int64   // scan cursor: the window of the last pop
	size    int     // queued events

	// all is resize's scratch for the sorted population, kept so that
	// resizing in steady state allocates nothing.
	all []*event
}

// bucket holds one day's events, sorted ascending by (at, seq), in
// evs[head:]. take advances head instead of reslicing the front away,
// so the backing array keeps its capacity and is reused: the bucket
// rewinds when it empties and compacts when an insert finds it full.
type bucket struct {
	evs  []*event
	head int
}

const (
	calMinBuckets = 16
	// calMaxWindow caps int64(at/width): conversions beyond the int64
	// range are implementation-defined, so every farther event lumps
	// into one final window (and one bucket), where the direct-search
	// fallback still orders it exactly.
	calMaxWindow = int64(1) << 60
)

func newCalendarQueue() *calendarQueue {
	return &calendarQueue{
		buckets: make([]bucket, calMinBuckets),
		width:   1,
	}
}

// calBucketSlab is the capacity each bucket of a grown table starts
// with, carved out of one array for the new buckets: most buckets
// never outgrow it, so a table of thousands of buckets costs one
// allocation instead of one doubling array per bucket.
const calBucketSlab = 8

// growBuckets returns a table of nb buckets that keeps the buckets of
// old (up to its capacity) with their arrays and gives each new bucket
// calBucketSlab slots of one shared array.
func growBuckets(old []bucket, nb int) []bucket {
	grown := make([]bucket, nb)
	kept := copy(grown, old[:cap(old)])
	slab := make([]*event, (nb-kept)*calBucketSlab)
	for b := kept; b < nb; b++ {
		i := (b - kept) * calBucketSlab
		grown[b].evs = slab[i : i : i+calBucketSlab]
	}
	return grown
}

// windowOf maps a time to its integer window at the current width.
func (q *calendarQueue) windowOf(at float64) int64 {
	w := at / q.width
	if w >= float64(calMaxWindow) {
		return calMaxWindow
	}
	return int64(w)
}

func (q *calendarQueue) push(e *event) {
	w := q.windowOf(e.at)
	q.buckets[w%int64(len(q.buckets))].insert(e)
	if w < q.window {
		// The new event precedes the scan cursor; pull the cursor back
		// so the next lap starts at (or before) the new minimum.
		q.window = w
	}
	q.size++
	if q.size > 2*len(q.buckets) {
		q.resize()
	}
}

// insert places e into the bucket keeping it sorted. Events arrive
// mostly in increasing time order, so scanning from the back usually
// stops immediately.
func (bk *bucket) insert(e *event) {
	bk.evs, bk.head = compactFront(bk.evs, bk.head)
	i := len(bk.evs)
	for i > bk.head && eventLess(e, bk.evs[i-1]) {
		i--
	}
	bk.evs = append(bk.evs, nil)
	copy(bk.evs[i+1:], bk.evs[i:])
	bk.evs[i] = e
}

// compactFront prepares a slice whose live part is s[head:] for an
// append: when the array is full but has dead slots at the front, it
// slides the live part down instead of letting append grow the array.
func compactFront[T any](s []T, head int) ([]T, int) {
	if head > 0 && len(s) == cap(s) {
		return s[:copy(s, s[head:])], 0
	}
	return s, head
}

// first returns the bucket's minimum event, or nil when it is empty.
func (bk *bucket) first() *event {
	if bk.head == len(bk.evs) {
		return nil
	}
	return bk.evs[bk.head]
}

func (q *calendarQueue) pop() *event {
	if q.size == 0 {
		return nil
	}
	nb := int64(len(q.buckets))
	// One lap of the calendar, window by window, from the cursor.
	for c := int64(0); c < nb; c++ {
		w := q.window + c
		b := int(w % nb)
		if e := q.buckets[b].first(); e != nil && q.windowOf(e.at) <= w {
			return q.take(b, w)
		}
	}
	// Sparse population: no event within a lap. Find the global
	// minimum over bucket heads directly.
	minB := -1
	var minEv *event
	for b := range q.buckets {
		if e := q.buckets[b].first(); e != nil && (minEv == nil || eventLess(e, minEv)) {
			minB, minEv = b, e
		}
	}
	return q.take(minB, q.windowOf(minEv.at))
}

// take removes the head of bucket b, advances the cursor to window w
// and applies the shrink rule.
func (q *calendarQueue) take(b int, w int64) *event {
	bk := &q.buckets[b]
	e := bk.evs[bk.head]
	bk.head++
	if bk.head == len(bk.evs) {
		bk.evs, bk.head = bk.evs[:0], 0
	}
	q.window = w
	q.size--
	if q.size < len(q.buckets)/2 && len(q.buckets) > calMinBuckets {
		q.resize()
	}
	return e
}

func (q *calendarQueue) len() int { return q.size }

// resize rebuilds the calendar for the current population: bucket
// count a power of two near the event count, width from the mean gap
// of a sample at the head of the sorted population (about two events
// per window). Bucket arrays and the sort scratch are reused, so once
// the calendar has reached its largest size a resize allocates
// nothing.
func (q *calendarQueue) resize() {
	all := q.all[:0]
	for b := range q.buckets {
		bk := &q.buckets[b]
		all = append(all, bk.evs[bk.head:]...)
		bk.evs, bk.head = bk.evs[:0], 0
	}
	// The order is strict (seq is unique), so an unstable sort is safe.
	slices.SortFunc(all, func(a, b *event) int {
		if eventLess(a, b) {
			return -1
		}
		return 1
	})
	q.all = all

	nb := calMinBuckets
	for nb < len(all) {
		nb *= 2
	}
	// Growing keeps the old buckets' arrays at the front of the new
	// table; shrinking keeps the surplus buckets beyond len for the
	// next growth.
	if nb <= cap(q.buckets) {
		q.buckets = q.buckets[:nb]
	} else {
		q.buckets = growBuckets(q.buckets, nb)
	}
	q.width = sampleWidth(all)
	if len(all) == 0 {
		q.window = 0
		return
	}
	q.window = q.windowOf(all[0].at)
	for _, e := range all {
		bk := &q.buckets[q.windowOf(e.at)%int64(nb)]
		// Appending in globally sorted order keeps each bucket sorted.
		bk.evs = append(bk.evs, e)
	}
}

// sampleWidth estimates the window width as twice the mean spacing of
// the first events (up to 32 gaps), the Brown heuristic of roughly two
// events per window near the head of the queue. Degenerate spacings
// (all events simultaneous, or a single event) fall back to width 1.
func sampleWidth(sorted []*event) float64 {
	n := len(sorted)
	if n < 2 {
		return 1
	}
	k := n
	if k > 33 {
		k = 33
	}
	span := sorted[k-1].at - sorted[0].at
	if span <= 0 {
		return 1
	}
	w := 2 * span / float64(k-1)
	// Keep windows addressable: never let the farthest event exceed
	// the integer window cap at this width.
	if lim := sorted[n-1].at / float64(calMaxWindow-1); w < lim {
		w = lim
	}
	return w
}
