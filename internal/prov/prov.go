// Package prov implements derivation provenance for the fauré-log
// engine: an append-only record of how every committed tuple was first
// derived — the rule, the parent tuples (by their 128-bit identities)
// and the stratum/round of the commit.
//
// The recorder is designed around the engine's determinism contract:
// edges are recorded only at commit, in emission order, so the
// recorded rule, parents and round of every tuple are as deterministic
// as the result tables (see Explainer.Dump for the canonical form).
//
// Memory is bounded on demand: capacity 0 keeps every edge (memory
// proportional to the number of derived tuples); capacity N > 0 runs
// as a flight recorder, a ring that overwrites the oldest edge once N
// are held. Storage is compact either way: interned predicate and
// rule-text tables, fixed-size edge records, and one shared parent
// arena addressed by offset/length instead of per-edge slices.
//
// The recorder is the engine's only provenance input: faure explain,
// faure eval -explain/-trace and the verifier's violation derivations
// all read it through an Explainer.
package prov

import (
	"sync"

	"faure/internal/ctable"
)

// SourceRef is one parent of a derivation as the engine reports it at
// commit time: the body predicate and the matched tuple's identity.
// For negated literals the engine also passes the pattern tuple (the
// bound literal with its "not derivable" condition), because that
// tuple exists in no relation and could not be rendered otherwise.
type SourceRef struct {
	Pred    string
	Key     ctable.TupleID
	Negated bool
	// Tuple is consulted only when Negated: the pattern tuple to keep
	// in the side table for rendering.
	Tuple ctable.Tuple
}

// Parent is one resolved parent reference of a recorded edge.
type Parent struct {
	Pred    string
	Key     ctable.TupleID
	Negated bool
}

// Edge is the exported view of one provenance record.
type Edge struct {
	Pred    string
	Key     ctable.TupleID
	Rule    string
	Stratum int
	Round   int
	Parents []Parent
}

// Stats is a point-in-time snapshot of the recorder's counters. All
// fields are monotonic, so per-run deltas can be taken by subtracting
// two snapshots (the engine does exactly that for its eval.prov_*
// counters).
type Stats struct {
	// Recorded counts every edge ever recorded (evicted ones included).
	Recorded int64
	// Parents counts every parent reference ever recorded.
	Parents int64
	// Evicted counts edges the ring overwrote.
	Evicted int64
	// Live is the number of edges currently held (a gauge).
	Live int64
	// Rules is the number of distinct rule texts interned (a gauge).
	Rules int64
}

// edgeRec is the in-arena form of an Edge: interned ids plus an
// offset/length window into the shared parent arena.
type edgeRec struct {
	key     ctable.TupleID
	pred    uint32
	rule    int32
	stratum int32
	round   int32
	poff    uint32
	plen    uint32
}

// parentRec is the in-arena form of a Parent.
type parentRec struct {
	key     ctable.TupleID
	pred    uint32
	negated bool
}

// ref scopes a tuple identity by its predicate. Identities hash only
// values and condition, so tuples of different relations with the same
// data (reach(1,2) derived from edge(1,2), say) share one — the index
// must not conflate them.
type ref struct {
	pred uint32
	key  ctable.TupleID
}

// Recorder accumulates provenance edges. It is safe for concurrent
// use: HTTP explain handlers read while later evaluations record.
type Recorder struct {
	mu    sync.Mutex
	cap   int // 0 = unbounded; > 0 = ring of that many edges
	edges []edgeRec
	head  int // ring start (oldest edge) once len(edges) == cap
	index map[ref]int32
	arena []parentRec
	// liveParents counts arena entries still referenced by a live
	// edge; when garbage dominates, maybeCompact rebuilds the arena.
	liveParents int
	preds       []string
	predIdx     map[string]uint32
	rules       []string
	ruleIdx     map[string]int32
	// neg keeps the pattern tuples of negated parents (they exist in
	// no relation); compaction drops entries no live edge references.
	neg map[ref]ctable.Tuple

	recorded int64
	parents  int64
	evicted  int64
}

// NewRecorder returns an empty recorder. capacity <= 0 keeps every
// edge; capacity N > 0 bounds memory to the N most recent edges
// (flight-recorder mode).
func NewRecorder(capacity int) *Recorder {
	if capacity < 0 {
		capacity = 0
	}
	return &Recorder{
		cap:     capacity,
		index:   map[ref]int32{},
		predIdx: map[string]uint32{},
		ruleIdx: map[string]int32{},
		neg:     map[ref]ctable.Tuple{},
	}
}

// InternRule returns the id of a rule's textual form, interning it on
// first sight. The engine calls it once per commit with the prepared
// rule string; the id is stable for the recorder's lifetime.
func (r *Recorder) InternRule(text string) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.internRuleLocked(text)
}

func (r *Recorder) internRuleLocked(text string) int32 {
	if id, ok := r.ruleIdx[text]; ok {
		return id
	}
	id := int32(len(r.rules))
	r.rules = append(r.rules, text)
	r.ruleIdx[text] = id
	return id
}

func (r *Recorder) internPredLocked(pred string) uint32 {
	if id, ok := r.predIdx[pred]; ok {
		return id
	}
	id := uint32(len(r.preds))
	r.preds = append(r.preds, pred)
	r.predIdx[pred] = id
	return id
}

// Record stores the provenance edge of one committed tuple. The first
// derivation of a tuple wins (matching the engine's dedup: later
// re-derivations never reach the relation store either). ruleID must
// come from InternRule on the same recorder.
func (r *Recorder) Record(pred string, key ctable.TupleID, ruleID int32, stratum, round int, srcs []SourceRef) {
	r.mu.Lock()
	defer r.mu.Unlock()
	predID := r.internPredLocked(pred)
	if _, dup := r.index[ref{predID, key}]; dup {
		return
	}
	poff := uint32(len(r.arena))
	for _, s := range srcs {
		sp := r.internPredLocked(s.Pred)
		r.arena = append(r.arena, parentRec{
			key:     s.Key,
			pred:    sp,
			negated: s.Negated,
		})
		if s.Negated {
			if _, ok := r.neg[ref{sp, s.Key}]; !ok {
				r.neg[ref{sp, s.Key}] = s.Tuple
			}
		}
	}
	r.liveParents += len(srcs)
	r.recorded++
	r.parents += int64(len(srcs))
	rec := edgeRec{
		key:     key,
		pred:    predID,
		rule:    ruleID,
		stratum: int32(stratum),
		round:   int32(round),
		poff:    poff,
		plen:    uint32(len(srcs)),
	}
	if r.cap > 0 && len(r.edges) >= r.cap {
		old := r.edges[r.head]
		delete(r.index, ref{old.pred, old.key})
		r.liveParents -= int(old.plen)
		r.evicted++
		r.edges[r.head] = rec
		r.index[ref{predID, key}] = int32(r.head)
		r.head = (r.head + 1) % r.cap
		r.maybeCompactLocked()
		return
	}
	r.index[ref{predID, key}] = int32(len(r.edges))
	r.edges = append(r.edges, rec)
}

// maybeCompactLocked rebuilds the parent arena (and the negated-parent
// side table) once eviction garbage dominates, keeping flight-recorder
// memory proportional to the live edges rather than the history.
func (r *Recorder) maybeCompactLocked() {
	if len(r.arena) < 1024 || len(r.arena) < 2*(r.liveParents+1) {
		return
	}
	fresh := make([]parentRec, 0, r.liveParents)
	liveNeg := map[ref]ctable.Tuple{}
	for i := range r.edges {
		e := &r.edges[i]
		off := uint32(len(fresh))
		for _, p := range r.arena[e.poff : e.poff+e.plen] {
			fresh = append(fresh, p)
			if p.negated {
				if tp, ok := r.neg[ref{p.pred, p.key}]; ok {
					liveNeg[ref{p.pred, p.key}] = tp
				}
			}
		}
		e.poff = off
	}
	r.arena = fresh
	r.neg = liveNeg
}

// Lookup returns the recorded edge of a tuple of pred. Identities are
// pred-scoped: tuples of different relations can share one.
func (r *Recorder) Lookup(pred string, key ctable.TupleID) (Edge, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	predID, ok := r.predIdx[pred]
	if !ok {
		return Edge{}, false
	}
	i, ok := r.index[ref{predID, key}]
	if !ok {
		return Edge{}, false
	}
	return r.exportLocked(r.edges[i]), true
}

// NegTuple returns the pattern tuple recorded for a negated parent.
func (r *Recorder) NegTuple(pred string, key ctable.TupleID) (ctable.Tuple, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	predID, ok := r.predIdx[pred]
	if !ok {
		return ctable.Tuple{}, false
	}
	tp, ok := r.neg[ref{predID, key}]
	return tp, ok
}

// Each visits every live edge in insertion order (oldest first; in
// ring mode, oldest surviving first). fn returning false stops the
// walk. The edges are exported copies, so fn may block or record.
func (r *Recorder) Each(fn func(Edge) bool) {
	r.mu.Lock()
	n := len(r.edges)
	out := make([]Edge, 0, n)
	start := 0
	if r.cap > 0 && n >= r.cap {
		start = r.head
	}
	for i := 0; i < n; i++ {
		out = append(out, r.exportLocked(r.edges[(start+i)%n]))
	}
	r.mu.Unlock()
	for _, e := range out {
		if !fn(e) {
			return
		}
	}
}

// Len returns the number of live edges.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.edges)
}

// Stats snapshots the recorder's counters.
func (r *Recorder) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Recorded: r.recorded,
		Parents:  r.parents,
		Evicted:  r.evicted,
		Live:     int64(len(r.edges)),
		Rules:    int64(len(r.rules)),
	}
}

func (r *Recorder) exportLocked(rec edgeRec) Edge {
	parents := make([]Parent, rec.plen)
	for i := range parents {
		p := r.arena[rec.poff+uint32(i)]
		parents[i] = Parent{Pred: r.preds[p.pred], Key: p.key, Negated: p.negated}
	}
	return Edge{
		Pred:    r.preds[rec.pred],
		Key:     rec.key,
		Rule:    r.rules[rec.rule],
		Stratum: int(rec.stratum),
		Round:   int(rec.round),
		Parents: parents,
	}
}
