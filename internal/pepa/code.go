package pepa

import "fmt"

// Integer coding of sequential derivatives.
//
// The string-keyed engine interned every global state by joining the
// canonical keys of its leaf derivatives — a string build plus a string
// hash per discovered successor, which dominated derivation profiles.
// The coded engine instead numbers the derivatives of each sequential
// component once, up front: encode walks the derivative closure of
// every leaf (the processes reachable from its initial derivative
// through seqTransitions), assigns each distinct canonical key a dense
// uint32 code, and resolves the sequential move table to codes. A
// global state is then a fixed-width []uint32 tuple — one code per
// leaf position — hashed directly with a few integer operations, and
// the per-state move generation runs entirely over precomputed integer
// tables through reusable scratch buffers (no per-state allocation).
//
// Canonical keys reappear only at the edges of the engine: once per
// state to materialise the chain's labels after exploration, and in
// error messages. Both reproduce the exact strings of the legacy
// string-keyed reference (DeriveOptions.Reference), which the
// differential tests hold the coded engine against.

// cmove is one sequential transition of a coded derivative.
type cmove struct {
	rate Rate
	act  int32  // index into coded.actNames
	next uint32 // successor derivative code
}

// coded is the integer-coded compilation of a model: the per-leaf
// derivative code tables plus the composition-level structures
// (cooperation action-id lists, hiding masks) the move evaluator needs.
// It is immutable after encode and shared read-only by all workers.
type coded struct {
	cc    *compiled
	nLeaf int

	// Derivative coding. keys[c] is the canonical key of code c;
	// moves[c] its sequential transitions resolved to codes. A
	// derivative whose transitions cannot be enumerated (undefined
	// constant, unguarded recursion, transition-cap overflow) carries
	// the error in moveErr[c] instead, surfaced — like the reference
	// engine — only when a global state actually expands through it.
	keys    []string
	procs   []Process
	moves   [][]cmove
	moveErr []error

	// Action coding. Ids are assigned in order of first appearance
	// during the closure walk; tau always has a code so hiding can
	// relabel to it.
	actNames []string
	tau      int32

	// Per-composition-node tables, keyed by AST node: the shared
	// action ids of each cooperation in sorted name order (the
	// expansion order determinism depends on), and membership bitsets
	// over action ids for cooperation and hiding sets.
	coopIDs  map[*Coop][]int32
	coopMask map[*Coop][]uint64
	hideMask map[*Hide][]uint64

	// initState is the coded initial global state.
	initState []uint32
}

// encode builds the integer-coded tables for a compiled composition.
// It never fails: enumeration errors are recorded per derivative and
// reported lazily during exploration, exactly when the string-keyed
// reference would hit them.
func encode(cc *compiled) *coded {
	cd := &coded{
		cc:       cc,
		nLeaf:    len(cc.leaves),
		coopIDs:  make(map[*Coop][]int32),
		coopMask: make(map[*Coop][]uint64),
		hideMask: make(map[*Hide][]uint64),
	}
	byKey := make(map[string]uint32)
	actIDs := make(map[string]int32)
	actID := func(name string) int32 {
		if id, ok := actIDs[name]; ok {
			return id
		}
		id := int32(len(cd.actNames))
		cd.actNames = append(cd.actNames, name)
		actIDs[name] = id
		return id
	}
	cd.tau = actID(Tau)

	// intern assigns (or returns) the code of a derivative and queues
	// newly seen ones for closure expansion.
	var todo []uint32
	intern := func(p Process) uint32 {
		k := cc.key(p)
		if c, ok := byKey[k]; ok {
			return c
		}
		c := uint32(len(cd.keys))
		byKey[k] = c
		cd.keys = append(cd.keys, k)
		cd.procs = append(cd.procs, p)
		cd.moves = append(cd.moves, nil)
		cd.moveErr = append(cd.moveErr, nil)
		todo = append(todo, c)
		return c
	}

	cd.initState = make([]uint32, cd.nLeaf)
	for i, l := range cc.leaves {
		cd.initState[i] = intern(l.Init)
	}
	for len(todo) > 0 {
		c := todo[0]
		todo = todo[1:]
		trs, err := cc.model.seqTransitions(cd.procs[c])
		if err != nil {
			cd.moveErr[c] = err
			continue
		}
		cms := make([]cmove, len(trs))
		for i, tr := range trs {
			cms[i] = cmove{rate: tr.rate, act: actID(tr.action), next: intern(tr.next)}
		}
		cd.moves[c] = cms
	}

	// Composition-level tables. Only actions that occur in some
	// sequential move can ever match a generated move, so names
	// outside the id table are simply omitted (a cooperation on a
	// dead action pairs nothing — the same outcome the reference
	// reaches by scanning for matches and finding none).
	words := (len(cd.actNames) + 63) / 64
	mask := func(set ActionSet) []uint64 {
		m := make([]uint64, words)
		for name := range set {
			if id, ok := actIDs[name]; ok {
				m[id>>6] |= 1 << (uint(id) & 63)
			}
		}
		return m
	}
	var walk func(Composition)
	walk = func(n Composition) {
		switch t := n.(type) {
		case *Leaf:
		case *Coop:
			ids := make([]int32, 0, len(cc.coopActs[t]))
			for _, name := range cc.coopActs[t] { // sorted at compile time
				if id, ok := actIDs[name]; ok {
					ids = append(ids, id)
				}
			}
			cd.coopIDs[t] = ids
			cd.coopMask[t] = mask(t.Set)
			walk(t.Left)
			walk(t.Right)
		case *Hide:
			cd.hideMask[t] = mask(t.Set)
			walk(t.Inner)
		default:
			panic(fmt.Sprintf("pepa: unknown composition node %T", n))
		}
	}
	walk(cc.node)
	return cd
}

func maskHas(m []uint64, id int32) bool {
	return m[id>>6]&(1<<(uint(id)&63)) != 0
}

// label joins the canonical keys of a coded state into the global
// state label — byte-identical to compiled.stateKey on the equivalent
// []Process state.
func (cd *coded) label(state []uint32) string {
	n := 0
	for i, c := range state {
		if i > 0 {
			n += 3
		}
		n += len(cd.keys[c])
	}
	buf := make([]byte, 0, n)
	for i, c := range state {
		if i > 0 {
			buf = append(buf, " | "...)
		}
		buf = append(buf, cd.keys[c]...)
	}
	return string(buf)
}

// emove is one move of a global state during evaluation: the action,
// the combined rate and a span of leaf updates in the scratch changes
// arena.
type emove struct {
	rate  Rate
	act   int32
	chOff int32
	chLen int32
}

// echange is one leaf update of a move.
type echange struct {
	leaf int32
	next uint32
}

// evalScratch holds the per-worker buffers move evaluation reuses
// across states. All slices grow to their high-water mark once and
// are truncated (not freed) between states, so steady-state evaluation
// allocates nothing.
type evalScratch struct {
	moves      []emove
	changes    []echange
	lidx, ridx []int32
	succ       []uint32
}

func (sc *evalScratch) reset() {
	sc.moves = sc.moves[:0]
	sc.changes = sc.changes[:0]
}

// genMoves evaluates the moves of the coded global state into sc and
// returns the segment [lo, hi) of sc.moves holding them. The move
// order — leaf transition order, left-to-right through cooperations,
// shared actions in sorted name order, left×right pairing — replicates
// compiled.moves exactly; the engines' state numbering and transition
// lists depend on it.
func (cd *coded) genMoves(state []uint32, sc *evalScratch) (int, int, error) {
	sc.reset()
	leaf := 0
	return cd.evalNode(cd.cc.node, state, sc, &leaf)
}

func (cd *coded) evalNode(n Composition, state []uint32, sc *evalScratch, nextLeaf *int) (int, int, error) {
	switch t := n.(type) {
	case *Leaf:
		i := *nextLeaf
		*nextLeaf++
		c := state[i]
		if err := cd.moveErr[c]; err != nil {
			return 0, 0, err
		}
		lo := len(sc.moves)
		for _, cm := range cd.moves[c] {
			off := int32(len(sc.changes))
			sc.changes = append(sc.changes, echange{leaf: int32(i), next: cm.next})
			sc.moves = append(sc.moves, emove{rate: cm.rate, act: cm.act, chOff: off, chLen: 1})
		}
		return lo, len(sc.moves), nil

	case *Hide:
		lo, hi, err := cd.evalNode(t.Inner, state, sc, nextLeaf)
		if err != nil {
			return 0, 0, err
		}
		m := cd.hideMask[t]
		for k := lo; k < hi; k++ {
			if maskHas(m, sc.moves[k].act) {
				sc.moves[k].act = cd.tau
			}
		}
		return lo, hi, nil

	case *Coop:
		llo, lhi, err := cd.evalNode(t.Left, state, sc, nextLeaf)
		if err != nil {
			return 0, 0, err
		}
		rlo, rhi, err := cd.evalNode(t.Right, state, sc, nextLeaf)
		if err != nil {
			return 0, 0, err
		}
		// Build the result above the operand segments, then compact it
		// down over them. Change spans are stable: the changes arena
		// only grows, so operand spans stay valid while combining.
		out := len(sc.moves)
		set := cd.coopMask[t]
		for k := llo; k < lhi; k++ {
			if !maskHas(set, sc.moves[k].act) {
				sc.moves = append(sc.moves, sc.moves[k])
			}
		}
		for k := rlo; k < rhi; k++ {
			if !maskHas(set, sc.moves[k].act) {
				sc.moves = append(sc.moves, sc.moves[k])
			}
		}
		for _, a := range cd.coopIDs[t] {
			sc.lidx, sc.ridx = sc.lidx[:0], sc.ridx[:0]
			var la, ra apparent
			for k := llo; k < lhi; k++ {
				if m := &sc.moves[k]; m.act == a {
					sc.lidx = append(sc.lidx, int32(k))
					if m.rate.Passive {
						la.passive += m.rate.Weight
					} else {
						la.active += m.rate.Value
					}
				}
			}
			for k := rlo; k < rhi; k++ {
				if m := &sc.moves[k]; m.act == a {
					sc.ridx = append(sc.ridx, int32(k))
					if m.rate.Passive {
						ra.passive += m.rate.Weight
					} else {
						ra.active += m.rate.Value
					}
				}
			}
			if la.mixed() || ra.mixed() {
				return 0, 0, fmt.Errorf("pepa: action %q mixes active and passive rates within one cooperand", cd.actNames[a])
			}
			for _, xi := range sc.lidx {
				for _, yi := range sc.ridx {
					x, y := sc.moves[xi], sc.moves[yi]
					off := int32(len(sc.changes))
					sc.changes = append(sc.changes, sc.changes[x.chOff:x.chOff+x.chLen]...)
					sc.changes = append(sc.changes, sc.changes[y.chOff:y.chOff+y.chLen]...)
					sc.moves = append(sc.moves, emove{
						rate:  combine(x.rate, y.rate, la, ra),
						act:   a,
						chOff: off,
						chLen: x.chLen + y.chLen,
					})
				}
			}
		}
		n := copy(sc.moves[llo:], sc.moves[out:])
		sc.moves = sc.moves[:llo+n]
		return llo, llo + n, nil

	default:
		return 0, 0, fmt.Errorf("pepa: unknown composition node %T", n)
	}
}

// successor materialises the target state of move m from cur into
// sc.succ and returns it. The slice is valid until the next call.
func (cd *coded) successor(cur []uint32, m *emove, sc *evalScratch) []uint32 {
	if cap(sc.succ) < cd.nLeaf {
		sc.succ = make([]uint32, cd.nLeaf)
	}
	succ := sc.succ[:cd.nLeaf]
	copy(succ, cur)
	for _, ch := range sc.changes[m.chOff : m.chOff+m.chLen] {
		succ[ch.leaf] = ch.next
	}
	return succ
}

// hashTuple hashes a coded state: FNV-1a over the codes word by word,
// finished with a splitmix64-style avalanche so both the low bits (map
// buckets) and high bits (shard selection) are well mixed.
func hashTuple(codes []uint32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range codes {
		h ^= uint64(c)
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func equalTuple(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// u32slab allocates fixed-size []uint32 views from blocks that double
// up to u32slabBlock codes, trading one make per ~64K codes for the
// per-state slice allocations the string engine paid while keeping a
// tiny model's footprint small. Views remain valid forever: full blocks
// are retained by the views into them and never reallocated.
type u32slab struct {
	block []uint32
}

const u32slabBlock = 1 << 16

func (s *u32slab) alloc(n int) []uint32 {
	if len(s.block)+n > cap(s.block) {
		size := min(max(2*cap(s.block), 64), u32slabBlock)
		s.block = make([]uint32, 0, max(size, n))
	}
	lo := len(s.block)
	s.block = s.block[:lo+n]
	return s.block[lo : lo+n : lo+n]
}
