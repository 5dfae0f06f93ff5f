package pepa

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pepatags/internal/ctmc"
	"pepatags/internal/obsv"
)

// Coded state-space derivation: the one engine over integer-coded
// states, for every worker count.
//
// The exploration is level-synchronous BFS: all states at frontier
// depth d are expanded before any state at depth d+1. Within a level
// the frontier is split into contiguous chunks, one per worker; each
// worker generates successors through its own reusable evaluation
// scratch (code.go), materialises fresh states into its own slab
// arenas, and interns them into a visited set sharded by the integer
// tuple hash. With one worker, and for thin levels at any worker count,
// the whole level is expanded inline on the coordinating goroutine. No
// strings are built and no per-state heap objects are allocated on the
// exploration path; labels and the transition list are assembled once
// at the end, in parallel chunks.
//
// Determinism: states are numbered in FIFO discovery order, i.e.
// sorted by (level, position of the discovering parent within its
// level, index of the discovering move) — the order of a plain serial
// BFS and of the string-keyed deriveReference. Workers record that
// discovery rank on every tentative state, taking the minimum under
// the shard lock when several parents of one level reach the same
// state, and a sort per level assigns final indices in rank order.
// Edges are emitted per worker in (parent, move) order and workers own
// contiguous parent ranges, so concatenating the per-worker edge
// chunks in worker order, level by level, reproduces the serial
// transition list. The result is bit-identical to deriveReference for
// any worker count.
//
// Bounds and errors: MaxStates is enforced per interned state through
// one shared count, so an oversized model stops after at most
// MaxStates+workers states, not at the end of a level. A deadlock or an
// unsynchronised passive action stops the worker that meets it, and the
// one at the earliest frontier position wins, which is the error a
// serial scan meets first. When a multi-worker level overflows, which
// of its states a serial scan would have counted first is not known, so
// the level is rolled back and expanded again inline; the error is then
// exactly the serial one.
//
// Scaling: each worker's per-level work is pure CPU over its own
// memory; the only shared mutable structures are the striped visited
// set, whose critical section is a hash-chain walk of a few integer
// comparisons, and the state count. On a machine that exposes a single
// CPU the pool degenerates gracefully: the remaining cost over one
// worker is one goroutine spawn per worker per large level.

// numShards stripes the visited-state hash. A power of two well above
// typical worker counts keeps lock contention negligible; selection
// uses the top bits of the tuple hash, whose low bits the shard map
// uses for its own buckets. The maps start empty, so a small model
// pays for the shards it touches only.
const numShards = 128

// minStatesPerWorker bounds how thin a level may be sliced: spawning a
// goroutine for a handful of states costs more than expanding them
// inline, so levels below 2*minStatesPerWorker run on the coordinator.
const minStatesPerWorker = 8

// prec is one interned global state. The records live in per-worker
// slabs; codes points into a per-worker u32slab block.
type prec struct {
	codes []uint32
	next  *prec  // hash-chain link among states sharing a 64-bit hash
	rank  uint64 // discovery rank within the level that first saw it
	id    int32  // final BFS index; -1 while tentative in the current level
}

// rankOf packs (parent position in level, move index) so that integer
// order equals lexicographic discovery order. Move indices fit easily
// in 24 bits: a single state never has millions of outgoing moves.
func rankOf(parentPos, moveIdx int) uint64 {
	return uint64(parentPos)<<24 | uint64(moveIdx)
}

type shard struct {
	mu sync.Mutex
	m  map[uint64]*prec
}

// pedge is a discovered transition. Its target's final index is known
// only after the level's rank sort, so during the level the target
// record sits in the worker's targets slice, and to is filled when the
// level commits. Committed edges then hold no pointers for the
// collector to scan.
type pedge struct {
	rate     float64
	from, to int32
	act      int32
}

// precSlab block-allocates prec records so a million interned states
// cost a few hundred allocations. Blocks start small and double up to
// precSlabBlock, so a tiny model allocates a few hundred bytes. Pointers
// into a block stay valid: blocks are abandoned when full, never grown.
type precSlab struct {
	block []prec
}

const precSlabBlock = 2048

func (s *precSlab) alloc() *prec {
	if len(s.block) == cap(s.block) {
		s.block = make([]prec, 0, min(max(2*cap(s.block), 16), precSlabBlock))
	}
	s.block = s.block[:len(s.block)+1]
	return &s.block[len(s.block)-1]
}

// pworker is the per-worker mutable state, reused across levels.
type pworker struct {
	sc      evalScratch
	codes   u32slab
	precs   precSlab
	fresh   []*prec
	edges   []pedge
	targets []*prec // targets[i] is the target of edges[i]
	dedup   int64
	coll    int64
	err     error
	errPos  int // parent position of err within the level (for first-error order)
}

func deriveCoded(cd *coded, maxStates, workers int, opts DeriveOptions) (*StateSpace, error) {
	start := time.Now()
	stats := opts.Stats
	if stats != nil {
		*stats = obsv.DeriveStats{Workers: workers, LeafCodes: len(cd.keys)}
		defer func() { stats.Elapsed = time.Since(start) }()
	}
	nLeaf := cd.nLeaf
	overflow := fmt.Errorf("pepa: state space exceeds %d states", maxStates)

	shards := make([]shard, numShards)
	for i := range shards {
		shards[i].m = make(map[uint64]*prec)
	}
	shardOf := func(h uint64) *shard { return &shards[h>>(64-7)] } // top log2(numShards) bits

	rootCodes := make([]uint32, nLeaf)
	copy(rootCodes, cd.initState)
	root := &prec{codes: rootCodes, id: 0}
	{
		h := hashTuple(rootCodes)
		shardOf(h).m[h] = root
	}

	states := []*prec{root} // in final-index order
	var edgeChunks [][]pedge
	nEdges := 0
	frontier := []*prec{root}
	level := 0
	// interned counts every state in the visited set, tentative ones
	// included; it is the MaxStates bound.
	var interned atomic.Int64
	interned.Store(1)

	ws := make([]*pworker, workers)
	for i := range ws {
		ws[i] = &pworker{}
	}

	// explore expands the frontier chunk [lo, hi) into w's buffers and
	// interns successors. Fresh-state materialisation happens under the
	// shard lock, so the critical section is a chain walk, a count
	// increment and a map write.
	explore := func(w *pworker, lo, hi int) {
		w.fresh, w.edges, w.targets, w.err = w.fresh[:0], w.edges[:0], w.targets[:0], nil
		w.dedup, w.coll = 0, 0
		for pos := lo; pos < hi; pos++ {
			cur := frontier[pos]
			mlo, mhi, err := cd.genMoves(cur.codes, &w.sc)
			if err == nil && mhi == mlo {
				err = deadlockError(cd.label(cur.codes))
			}
			if err != nil {
				w.err, w.errPos = err, pos
				return
			}
			for k := mlo; k < mhi; k++ {
				mv := &w.sc.moves[k]
				if mv.rate.Passive {
					w.err = unsyncPassiveError(cd.actNames[mv.act], cd.label(cur.codes))
					w.errPos = pos
					return
				}
				succ := cd.successor(cur.codes, mv, &w.sc)
				h := hashTuple(succ)
				rank := rankOf(pos, k-mlo)
				sh := shardOf(h)
				sh.mu.Lock()
				head := sh.m[h]
				var rec *prec
				for r := head; r != nil; r = r.next {
					if equalTuple(r.codes, succ) {
						rec = r
						break
					}
				}
				if rec == nil {
					if interned.Add(1) > int64(maxStates) {
						sh.mu.Unlock()
						w.err, w.errPos = overflow, pos
						return
					}
					rec = w.precs.alloc()
					rec.codes = w.codes.alloc(nLeaf)
					copy(rec.codes, succ)
					rec.next = head
					rec.rank = rank
					rec.id = -1
					sh.m[h] = rec
					sh.mu.Unlock()
					if head != nil {
						w.coll++
					}
					w.fresh = append(w.fresh, rec)
				} else {
					if rec.id < 0 && rank < rec.rank {
						// Tentative in this level: keep the earliest
						// discovery so the rank sort matches serial BFS.
						rec.rank = rank
					}
					sh.mu.Unlock()
					w.dedup++
				}
				w.edges = append(w.edges, pedge{rate: mv.rate.Value, from: cur.id, act: mv.act})
				w.targets = append(w.targets, rec)
			}
		}
	}

	// rollback unlinks the tentative states of the current level from
	// the visited set. They were prepended to their hash chains after
	// every state of earlier levels, so each chain loses a prefix.
	rollback := func(used int) {
		for _, w := range ws[:used] {
			for _, rec := range w.fresh {
				h := hashTuple(rec.codes)
				sh := shardOf(h)
				head := sh.m[h]
				for head != nil && head.id < 0 {
					head = head.next
				}
				if head == nil {
					delete(sh.m, h)
				} else {
					sh.m[h] = head
				}
			}
		}
		interned.Store(int64(len(states)))
	}

	for len(frontier) > 0 {
		// Thin levels are not worth fanning out; expand them inline.
		used := min(len(frontier)/minStatesPerWorker, workers)
		if used <= 1 {
			used = 1
			explore(ws[0], 0, len(frontier))
		} else {
			var wg sync.WaitGroup
			for i := 0; i < used; i++ {
				lo := i * len(frontier) / used
				hi := (i + 1) * len(frontier) / used
				wg.Add(1)
				go func(w *pworker, lo, hi int) {
					defer wg.Done()
					explore(w, lo, hi)
				}(ws[i], lo, hi)
			}
			wg.Wait()
		}

		// Surface the error a serial scan would have hit first.
		var firstErr error
		firstPos, overflowed := -1, false
		for _, w := range ws[:used] {
			if w.err != nil && (firstPos < 0 || w.errPos < firstPos) {
				firstErr, firstPos = w.err, w.errPos
			}
			overflowed = overflowed || w.err == overflow
		}
		if overflowed && used > 1 {
			rollback(used)
			used = 1
			explore(ws[0], 0, len(frontier))
			firstErr = ws[0].err
		}
		if firstErr != nil {
			if stats != nil {
				stats.States = int(interned.Load())
				stats.Levels = level + 1
				stats.Transitions = nEdges
				for _, w := range ws[:used] {
					stats.Transitions += len(w.edges)
					stats.DedupHits += w.dedup
					stats.HashCollisions += w.coll
				}
			}
			return nil, firstErr
		}

		// Deterministic renumbering: collect this level's tentative
		// states and sort by discovery rank == serial FIFO order.
		var fresh []*prec
		for _, w := range ws[:used] {
			fresh = append(fresh, w.fresh...)
			if stats != nil {
				stats.DedupHits += w.dedup
				stats.HashCollisions += w.coll
			}
		}
		slices.SortFunc(fresh, func(a, b *prec) int { return cmp.Compare(a.rank, b.rank) })
		for _, rec := range fresh {
			rec.id = int32(len(states))
			states = append(states, rec)
		}
		for _, w := range ws[:used] {
			if len(w.edges) > 0 {
				for i, rec := range w.targets {
					w.edges[i].to = rec.id
				}
				edgeChunks = append(edgeChunks, slices.Clone(w.edges))
				nEdges += len(w.edges)
			}
		}

		level++
		if stats != nil {
			stats.States = len(states)
			stats.Transitions = nEdges
			stats.Levels = level
		}
		if opts.Progress != nil {
			opts.Progress(obsv.Progress{Phase: "derive", Step: level, Count: len(states), Value: float64(len(fresh))})
		}
		frontier = fresh
	}

	// Assembly, streamed from the per-worker chunks: the final state
	// order is fixed, so the codes table, the labels and the transition
	// list are each filled by independent parallel chunks into
	// exactly-sized slices — no builder, no global append.
	n := len(states)
	codes := make([]uint32, n*nLeaf)
	parallelFor(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(codes[i*nLeaf:(i+1)*nLeaf], states[i].codes)
		}
	})
	offs := make([]int, len(edgeChunks)+1)
	for i, ch := range edgeChunks {
		offs[i+1] = offs[i] + len(ch)
	}
	trans := make([]ctmc.Transition, nEdges)
	parallelFor(workers, len(edgeChunks), func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			out := trans[offs[ci]:]
			for k, e := range edgeChunks[ci] {
				out[k] = ctmc.Transition{From: int(e.from), To: int(e.to), Rate: e.rate, Action: cd.actNames[e.act]}
			}
		}
	})
	return &StateSpace{
		Chain:    ctmc.NewChain(cd.buildLabels(codes, n, workers), trans),
		NumLeaf:  nLeaf,
		codes:    codes,
		codeKeys: cd.keys,
	}, nil
}
