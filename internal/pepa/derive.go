package pepa

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"pepatags/internal/ctmc"
	"pepatags/internal/obsv"
)

// Metric names registered by Derive, as package-level consts so the
// namespace is greppable and checked by the metricname analyzer
// (tools/govet-suite).
const (
	metricDeriveCount       = "derive.count"
	metricDeriveStates      = "derive.states"
	metricDeriveTransitions = "derive.transitions"
	metricDeriveSeconds     = "derive.seconds"
)

// DefaultMaxStates bounds state-space derivation.
const DefaultMaxStates = 2_000_000

// StateSpace is the result of deriving a model: the underlying labelled
// CTMC plus, for every global state, the local derivative of each
// sequential component (leaf), which measure code uses to extract
// populations such as queue lengths.
//
// The coded engines store the per-state derivatives as one flat
// []uint32 of derivative codes plus a code→key table, so a million
// states cost one allocation rather than a []string each; the legacy
// reference engine (DeriveOptions.Reference) fills leafKeys instead.
type StateSpace struct {
	Chain   *ctmc.Chain
	NumLeaf int

	codes    []uint32 // [state*NumLeaf+leaf] -> derivative code (coded engines)
	codeKeys []string // code -> canonical derivative key

	leafKeys [][]string // [state][leaf] canonical key (reference engine only)
}

// LeafDerivative returns the canonical key of leaf l in global state
// s. No program path calls it: the derivation-equivalence tests
// compare engines leaf by leaf through it.
func (ss *StateSpace) LeafDerivative(s, l int) string {
	if ss.leafKeys != nil {
		return ss.leafKeys[s][l]
	}
	return ss.codeKeys[ss.codes[s*ss.NumLeaf+l]]
}

// move is a transition of a composition node: the action, the rate and
// the leaf updates it performs.
type move struct {
	action  string
	rate    Rate
	changes []leafChange
}

type leafChange struct {
	leaf int
	next Process
}

// compiled composition: leaves are numbered left to right. The caches
// make repeated per-state work (constant resolution, canonical keys,
// per-Coop apparent-rate action lists) O(1) after first sight. Only
// encode and the reference engine fill them, each on one goroutine.
type compiled struct {
	model    *Model
	node     Composition
	leaves   []*Leaf
	coopActs map[*Coop][]string       // sorted cooperation-set names, fixed at compile time
	trMemo   map[Process][]transition // resolved sequential moves
	keyMemo  map[Process]string       // canonical derivative key
}

func compile(m *Model, c Composition) *compiled {
	cc := &compiled{
		model:    m,
		node:     c,
		coopActs: make(map[*Coop][]string),
		trMemo:   make(map[Process][]transition),
		keyMemo:  make(map[Process]string),
	}
	var walk func(Composition)
	walk = func(n Composition) {
		switch t := n.(type) {
		case *Leaf:
			cc.leaves = append(cc.leaves, t)
		case *Coop:
			cc.coopActs[t] = t.Set.Names()
			walk(t.Left)
			walk(t.Right)
		case *Hide:
			walk(t.Inner)
		default:
			panic(fmt.Sprintf("pepa: unknown composition node %T", n))
		}
	}
	walk(c)
	return cc
}

// key returns the canonical derivative key of p, memoised per AST node.
// Erlang-style chains make Key() linear in the remaining phase count,
// so caching turns the per-state cost from O(phases^2) into O(1).
func (cc *compiled) key(p Process) string {
	if k, ok := cc.keyMemo[p]; ok {
		return k
	}
	k := p.Key()
	cc.keyMemo[p] = k
	return k
}

// seqMoves returns the sequential transitions of derivative p,
// memoised per AST node. The underlying Model is never mutated during
// derivation, so the cached slices are shared read-only; callers must
// not modify them.
func (cc *compiled) seqMoves(p Process) ([]transition, error) {
	if trs, ok := cc.trMemo[p]; ok {
		return trs, nil
	}
	trs, err := cc.model.seqTransitions(p)
	if err != nil {
		return nil, err
	}
	cc.trMemo[p] = trs
	return trs, nil
}

// moves derives the transitions of the composition node given the
// current leaf derivatives. nextLeaf tracks the leaf numbering while
// recursing; callers pass a pointer to 0.
//
// Shared actions of a cooperation are expanded in sorted action order
// (precomputed in compile), not Go map order, so the move list — and
// therefore state numbering and the transition list — is fully
// deterministic. The coded engines (code.go) replicate exactly this
// order over integer tables; the differential tests hold them together.
func (cc *compiled) moves(n Composition, state []Process, nextLeaf *int) ([]move, error) {
	switch t := n.(type) {
	case *Leaf:
		i := *nextLeaf
		*nextLeaf++
		trs, err := cc.seqMoves(state[i])
		if err != nil {
			return nil, err
		}
		out := make([]move, len(trs))
		for k, tr := range trs {
			out[k] = move{action: tr.action, rate: tr.rate, changes: []leafChange{{leaf: i, next: tr.next}}}
		}
		return out, nil

	case *Hide:
		inner, err := cc.moves(t.Inner, state, nextLeaf)
		if err != nil {
			return nil, err
		}
		for i := range inner {
			if t.Set.Has(inner[i].action) {
				inner[i].action = Tau
			}
		}
		return inner, nil

	case *Coop:
		ml, err := cc.moves(t.Left, state, nextLeaf)
		if err != nil {
			return nil, err
		}
		mr, err := cc.moves(t.Right, state, nextLeaf)
		if err != nil {
			return nil, err
		}
		var out []move
		// Independent moves: actions outside the cooperation set.
		for _, m := range ml {
			if !t.Set.Has(m.action) {
				out = append(out, m)
			}
		}
		for _, m := range mr {
			if !t.Set.Has(m.action) {
				out = append(out, m)
			}
		}
		// Shared moves: pair up left and right activities of each
		// action in the set, scaling by apparent rates.
		for _, a := range cc.coopActs[t] {
			var la, ra apparent
			var lms, rms []move
			for _, m := range ml {
				if m.action == a {
					lms = append(lms, m)
					if m.rate.Passive {
						la.passive += m.rate.Weight
					} else {
						la.active += m.rate.Value
					}
				}
			}
			for _, m := range mr {
				if m.action == a {
					rms = append(rms, m)
					if m.rate.Passive {
						ra.passive += m.rate.Weight
					} else {
						ra.active += m.rate.Value
					}
				}
			}
			if la.mixed() || ra.mixed() {
				return nil, fmt.Errorf("pepa: action %q mixes active and passive rates within one cooperand", a)
			}
			for _, x := range lms {
				for _, y := range rms {
					changes := make([]leafChange, 0, len(x.changes)+len(y.changes))
					changes = append(changes, x.changes...)
					changes = append(changes, y.changes...)
					out = append(out, move{action: a, rate: combine(x.rate, y.rate, la, ra), changes: changes})
				}
			}
		}
		return out, nil

	default:
		return nil, fmt.Errorf("pepa: unknown composition node %T", n)
	}
}

// stateKey joins the leaf derivative keys into the global state label.
func (cc *compiled) stateKey(s []Process) string {
	var sb strings.Builder
	for i, p := range s {
		if i > 0 {
			sb.WriteString(" | ")
		}
		sb.WriteString(cc.key(p))
	}
	return sb.String()
}

// DeriveOptions controls state-space derivation.
type DeriveOptions struct {
	MaxStates int // cap on explored states (default DefaultMaxStates)

	// Workers sets the size of the coded engine's worker pool (see
	// parallel.go): 0 or 1 expands every BFS level on the calling
	// goroutine, and a negative value means "one per CPU". Every worker
	// count produces the bit-identical chain.
	Workers int

	// Reference forces the legacy string-keyed serial exploration that
	// predates integer coding: states interned by their joined label
	// strings through ctmc.Builder. It is the differential-testing
	// oracle the coded engines are held against — structurally
	// independent, allocation-heavy, and an order of magnitude slower.
	// When set, Workers is ignored.
	Reference bool

	// SkipLint disables the static pre-flight (see LintModel). By
	// default Derive rejects models with error-severity lint
	// diagnostics — dead cooperation syncs, unsynchronised top-level
	// passives, mixed apparent rates — with a positioned *LintError
	// before any state is explored, so a sweep worker fails in
	// microseconds instead of after a deep BFS.
	SkipLint bool

	// Stats, when non-nil, is filled with exploration statistics
	// (also on error, with the partial counts reached).
	Stats *obsv.DeriveStats

	// Progress, when non-nil, is called once per completed BFS level
	// from the coordinating goroutine. The coded engine completes D+1
	// levels for BFS depth D, the last with an empty frontier.
	Progress obsv.ProgressFunc

	// Span, when non-nil, receives "compile" and "explore" child spans
	// so pipeline traces show where derivation time went. The compile
	// span covers both the AST walk and the integer-coding pass.
	Span *obsv.Span

	// Metrics, when non-nil, receives per-derivation aggregates on
	// success: the "derive.count", "derive.states" and
	// "derive.transitions" counters and the "derive.seconds"
	// histogram. Recorded once per call, off the exploration hot path.
	Metrics *obsv.Registry

	// Events, when non-nil, receives structured events: "derive.start"
	// (info) when exploration begins, "derive.level" (debug, so subject
	// to the log's rate limit) per completed BFS level with the frontier
	// size, "derive.done" (info) with the final counts including the
	// dedup/collision shard statistics, and "derive.error" (error) on
	// failure. Emitted from the coordinating goroutine only.
	Events *obsv.EventLog
}

func (o DeriveOptions) workers() int {
	if o.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers == 0 {
		return 1
	}
	return o.Workers
}

// Derive explores the reachable state space of the model's system
// composition breadth-first and returns the labelled CTMC.
//
// States are numbered in BFS discovery order (the initial state is 0)
// and the numbering is deterministic: shared-action expansion follows
// sorted action order, so repeated runs — coded or reference, any
// worker count — yield identical chains.
//
// Errors are returned for undefined constants, unguarded recursion,
// passive activities that remain unsynchronised at the top level,
// deadlocked states, and state-space overflow.
func Derive(m *Model, opts DeriveOptions) (*StateSpace, error) {
	if m.System == nil {
		return nil, fmt.Errorf("pepa: model has no system composition")
	}
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	start := time.Now()
	if opts.Events != nil {
		// The done/error events report the shard statistics, which live
		// in DeriveStats; make sure somewhere collects them.
		if opts.Stats == nil {
			opts.Stats = new(obsv.DeriveStats)
		}
		opts.Events.Emit(obsv.LevelInfo, "derive.start", "", map[string]float64{
			"workers":    float64(opts.workers()),
			"max_states": float64(maxStates),
		})
		progress := opts.Progress
		opts.Progress = func(p obsv.Progress) {
			opts.Events.Emit(obsv.LevelDebug, "derive.level", "", map[string]float64{
				"level":    float64(p.Step),
				"states":   float64(p.Count),
				"frontier": p.Value,
			})
			if progress != nil {
				progress(p)
			}
		}
	}
	if !opts.SkipLint {
		var lintSpan *obsv.Span
		if opts.Span != nil {
			lintSpan = opts.Span.Child("lint")
		}
		err := firstLintError(LintModel(m))
		if lintSpan != nil {
			lintSpan.End()
		}
		if err != nil {
			opts.Events.Errorf("derive.error", "%v", err)
			return nil, err
		}
	}
	var compileSpan *obsv.Span
	if opts.Span != nil {
		compileSpan = opts.Span.Child("compile")
	}
	cc := compile(m, m.System)
	nLeaf := len(cc.leaves)
	var cd *coded
	if nLeaf > 0 && !opts.Reference {
		cd = encode(cc)
	}
	if compileSpan != nil {
		compileSpan.End()
	}
	if nLeaf == 0 {
		err := fmt.Errorf("pepa: system has no sequential components")
		opts.Events.Errorf("derive.error", "%v", err)
		return nil, err
	}
	var exploreSpan *obsv.Span
	if opts.Span != nil {
		exploreSpan = opts.Span.Child("explore")
	}
	var ss *StateSpace
	var err error
	if opts.Reference {
		ss, err = deriveReference(cc, nLeaf, maxStates, opts)
	} else {
		ss, err = deriveCoded(cd, maxStates, opts.workers(), opts)
	}
	if exploreSpan != nil {
		exploreSpan.End()
	}
	if err == nil && opts.Metrics != nil {
		opts.Metrics.Counter(metricDeriveCount).Inc()
		opts.Metrics.Counter(metricDeriveStates).Add(int64(ss.Chain.NumStates()))
		opts.Metrics.Counter(metricDeriveTransitions).Add(int64(ss.Chain.NumTransitions()))
		opts.Metrics.Histogram(metricDeriveSeconds).Observe(time.Since(start).Seconds())
	}
	if opts.Events != nil {
		if err != nil {
			opts.Events.Errorf("derive.error", "%v", err)
		} else {
			opts.Events.Emit(obsv.LevelInfo, "derive.done", "", map[string]float64{
				"states":          float64(ss.Chain.NumStates()),
				"transitions":     float64(ss.Chain.NumTransitions()),
				"levels":          float64(opts.Stats.Levels),
				"dedup_hits":      float64(opts.Stats.DedupHits),
				"hash_collisions": float64(opts.Stats.HashCollisions),
				"elapsed_s":       time.Since(start).Seconds(),
			})
		}
	}
	return ss, err
}

// buildLabels materialises the chain's state labels from the coded
// arena, in parallel chunks when workers > 1 (label building is the
// only remaining per-state string work and is embarrassingly parallel).
func (cd *coded) buildLabels(codes []uint32, n, workers int) []string {
	labels := make([]string, n)
	parallelFor(workers, n, func(lo, hi int) {
		var buf []byte
		for i := lo; i < hi; i++ {
			buf = buf[:0]
			for j, c := range codes[i*cd.nLeaf : (i+1)*cd.nLeaf] {
				if j > 0 {
					buf = append(buf, " | "...)
				}
				buf = append(buf, cd.keys[c]...)
			}
			labels[i] = string(buf)
		}
	})
	return labels
}

// parallelFor splits [0, n) into contiguous chunks across workers.
// With one worker (or trivial n) it runs inline.
func parallelFor(workers, n int, f func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			f(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		lo, hi := i*n/workers, (i+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// deriveReference is the legacy string-keyed exploration: a plain FIFO
// BFS interning joined label strings through ctmc.Builder. It shares
// no state representation with the coded engines, which makes it the
// independent oracle for their equivalence tests; production callers
// never take this path unless they set DeriveOptions.Reference.
func deriveReference(cc *compiled, nLeaf, maxStates int, opts DeriveOptions) (*StateSpace, error) {
	start := time.Now()
	stats := opts.Stats
	if stats != nil {
		*stats = obsv.DeriveStats{Workers: 1}
		defer func() { stats.Elapsed = time.Since(start) }()
	}

	init := make([]Process, nLeaf)
	for i, l := range cc.leaves {
		init[i] = l.Init
	}

	b := ctmc.NewBuilder()
	type queued struct {
		idx   int
		level int
		state []Process
	}
	var frontier []queued
	var leafKeys [][]string

	addState := func(s []Process) (int, bool) {
		k := cc.stateKey(s)
		if b.HasState(k) {
			if stats != nil {
				stats.DedupHits++
			}
			return b.State(k), false
		}
		i := b.State(k)
		lk := make([]string, nLeaf)
		for j, p := range s {
			lk[j] = cc.key(p)
		}
		leafKeys = append(leafKeys, lk)
		return i, true
	}

	idx0, _ := addState(init)
	frontier = append(frontier, queued{idx: idx0, level: 0, state: init})

	type pending struct {
		from, to int
		rate     float64
		action   string
	}
	var edges []pending
	levels := 1

	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		if cur.level+1 > levels {
			levels = cur.level + 1
			if opts.Progress != nil {
				opts.Progress(obsv.Progress{Phase: "derive", Step: cur.level, Count: b.NumStates(), Value: float64(len(frontier) + 1)})
			}
		}
		var zero int
		ms, err := cc.moves(cc.node, cur.state, &zero)
		if err != nil {
			return nil, err
		}
		if len(ms) == 0 {
			return nil, deadlockError(cc.stateKey(cur.state))
		}
		for _, mv := range ms {
			if mv.rate.Passive {
				return nil, unsyncPassiveError(mv.action, cc.stateKey(cur.state))
			}
			next := make([]Process, nLeaf)
			copy(next, cur.state)
			for _, ch := range mv.changes {
				next[ch.leaf] = ch.next
			}
			ni, fresh := addState(next)
			if fresh {
				if b.NumStates() > maxStates {
					return nil, fmt.Errorf("pepa: state space exceeds %d states", maxStates)
				}
				frontier = append(frontier, queued{idx: ni, level: cur.level + 1, state: next})
			}
			edges = append(edges, pending{from: cur.idx, to: ni, rate: mv.rate.Value, action: mv.action})
		}
		if stats != nil {
			stats.States = b.NumStates()
			stats.Transitions = len(edges)
			stats.Levels = levels
		}
	}
	for _, e := range edges {
		b.Transition(e.from, e.to, e.rate, e.action)
	}
	return &StateSpace{Chain: b.Build(), NumLeaf: nLeaf, leafKeys: leafKeys}, nil
}

// LevelExpectation interprets leaf derivatives named <prefix><integer>
// (e.g. QA0..QA10) as population levels and returns the expectation of
// the level of the given leaf under the distribution pi. States whose
// leaf derivative does not match the prefix+integer shape contribute
// zero; if no state matches at all an error is returned, to catch
// typos.
func (ss *StateSpace) LevelExpectation(pi []float64, leaf int, prefix string) (float64, error) {
	if leaf < 0 || leaf >= ss.NumLeaf {
		return 0, fmt.Errorf("pepa: leaf %d out of range [0,%d)", leaf, ss.NumLeaf)
	}
	if len(pi) != ss.Chain.NumStates() {
		return 0, fmt.Errorf("pepa: pi length %d != %d states", len(pi), ss.Chain.NumStates())
	}
	var acc float64
	matched := false
	if ss.codes != nil {
		// Coded state space: match each derivative code once, then
		// stream the per-state codes — no string work per state.
		codeLvl := make([]int32, len(ss.codeKeys))
		for c, key := range ss.codeKeys {
			if lvl, ok := trailingInt(key, prefix); ok {
				codeLvl[c] = int32(lvl)
			} else {
				codeLvl[c] = -1
			}
		}
		for s := 0; s < ss.Chain.NumStates(); s++ {
			lvl := codeLvl[ss.codes[s*ss.NumLeaf+leaf]]
			if lvl < 0 {
				continue
			}
			matched = true
			acc += pi[s] * float64(lvl)
		}
	} else {
		for s := 0; s < ss.Chain.NumStates(); s++ {
			lvl, ok := trailingInt(ss.leafKeys[s][leaf], prefix)
			if !ok {
				continue
			}
			matched = true
			acc += pi[s] * float64(lvl)
		}
	}
	if !matched {
		return 0, fmt.Errorf("pepa: no derivative of leaf %d matches %q<n>", leaf, prefix)
	}
	return acc, nil
}

// trailingInt matches labels of the exact shape prefix + digits.
func trailingInt(label, prefix string) (int, bool) {
	if !strings.HasPrefix(label, prefix) || len(label) == len(prefix) {
		return 0, false
	}
	n := 0
	for i := len(prefix); i < len(label); i++ {
		c := label[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}
