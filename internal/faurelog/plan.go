package faurelog

// Join execution and cost-guided planning.
//
// One executor runs every rule application, in two steps. Discovery
// finds the body's positive matches depth-first in the application's
// literal order. Replay matches each discovered tuple again in the
// written (canonical) order — the fed literal first, the other
// positives as written, then the negations — rebuilding the bindings,
// equality conditions and negation conditions exactly as written order
// defines them, and dropping a combination the written-order matcher
// rejects. In written order the two advance together: each literal is
// replayed as discovery reaches it, and the replay's matcher makes
// discovery's checks. A reordered plan checks tuples during discovery
// with a formula-free matcher (discover), which only binds slots and
// rejects constant/constant conflicts, and replays each complete match
// from the first literal whose tuple changed since the previous one.
//
// The literal order is the written one unless the planner finds a
// cheaper one. The planner greedily reorders the positive body literals
// by their estimated candidate count under sideways information
// passing — pick the cheapest literal given the variables bound so far,
// bind its variables, repeat — using the store's O(1) per-column
// statistics (relstore.ColStats). The fed literal of a semi-naive
// round stays pinned first: it reads only the rows its relation gained
// in the previous round, and every other literal benefits from the
// variables it binds.
// Options.NoPlan keeps the written order.
//
// Determinism argument. The evaluation's observable output — table
// contents, conditions, row order, provenance — depends on the ORDER
// emissions reach the commit path: dedup keeps the first occurrence,
// absorption compares each condition against the ones committed before
// it, and row order is insertion order. Written order fixes that order.
// Its discovery probes one indexed column per literal (candidates),
// whose tuples come constants first, then c-variables, and each
// replayed match goes straight to emit. A reordered plan discovers in
// another order and intersects every bound column (plannedCandidates),
// whose tuples come in store order, so it buffers its replayed matches
// and sorts them by a key that encodes, per literal, the position
// written order visits the matched tuple at — the store index for the
// fed literal, and (c-variable bucket bit, store index) for the other
// literals — before handing them to emit.
//
// The emission sequence is thus exactly the written-order sequence,
// minus combinations whose condition is syntactically contradictory: a
// variable that three literals share can be claimed by two different
// constants, which discovery in another order rejects while written
// order only conjoins their equalities with a c-variable; the eager
// prune or the final prune drops such a tuple, and it can never absorb
// or outlive a satisfiable one. Final tables, dumps and verdicts are
// therefore bit-for-bit identical with the planner on or off. Only
// speculative-work counters (pruned, sat calls, probes) may differ.

import (
	"slices"

	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/relstore"
)

// planPositives greedily orders the plan's positive literals by
// estimated cost. A fed literal (slot 0) stays pinned. It returns
// the canonical slot indexes in execution order and whether that
// differs from the written order, and leaves in the executor's planned
// literals the positives with their roles under that order. Ties keep
// the lowest slot, so the plan is deterministic for a given frozen
// store.
func (e *engine) planPositives(p *rulePlan) ([]int, bool) {
	x := &e.x
	lits := slices.Clone(p.lits[:p.nPos])
	for i := range lits {
		lits[i].args, lits[i].probe = slices.Clone(lits[i].args), nil
	}
	x.planned = lits
	bound := make([]bool, p.nSlots)
	order := x.order[:0]
	take := func(slot int) {
		order = append(order, slot)
		lits[slot].assignRoles(bound)
	}
	if p.fed {
		take(0)
	}
	for len(order) < p.nPos {
		best, bestCost := -1, 0.0
		for s := 0; s < p.nPos; s++ {
			if slices.Contains(order, s) {
				continue
			}
			c := e.estimateLiteral(&lits[s], bound)
			if best < 0 || c < bestCost {
				best, bestCost = s, c
			}
		}
		take(best)
	}
	x.order = order
	for i, s := range order {
		if s != i {
			return order, true
		}
	}
	return order, false
}

// estimateLiteral estimates how many candidate tuples the store serves
// for one positive literal given the slots bound so far: the relation
// size scaled by the selectivity of every constant-bound column,
// multiplied under an independence assumption. Per column, the
// expected candidates are the average constant bucket plus every
// c-variable tuple (which survives any probe); see ColStats.
func (e *engine) estimateLiteral(l *litPlan, bound []bool) float64 {
	rel := e.store.Rel(l.pred)
	if rel == nil || rel.Len() == 0 {
		return 0
	}
	n := rel.Len()
	cost := float64(n)
	for col, a := range l.args {
		switch a.kind {
		case TConst:
		case TVar:
			if !bound[a.slot] {
				continue
			}
		default:
			continue
		}
		cost *= rel.ColStats(col).EstCandidates(n) / float64(n)
	}
	return cost
}

// executor runs one rule application at a time (see the package
// comment). The engine owns one; its scratch is truncated, not
// reallocated, by every application.
type executor struct {
	e *engine
	p *rulePlan
	// lo and hi bound the index range the fed literal reads.
	lo, hi int
	rels   []*relstore.Relation // per literal of p; nil for a missing relation

	// order lists the positive slots in discovery order, and lits holds
	// the positives' roles under it: the compiled p.lits in written
	// order, otherwise the planner's copies (planned).
	order     []int
	lits      []litPlan
	reordered bool
	planned   []litPlan

	// Discovery: per slot, the matched tuple's store index; and, in a
	// reordered plan, the discovery-order bindings.
	hits   []int
	dslots []cond.Term
	// Replay, current for the slots below replayed: the written-order
	// bindings (m.slots); the conditions and sources in written order,
	// those of the slots before s ending at ends[s] (ends[0] stays 0)
	// and at s; and, in a reordered plan, each slot's order key. A
	// complete match appends its negations to conds and srcs.
	m        matcher
	replayed int
	conds    []*cond.Formula
	ends     []int
	srcs     []Source
	keys     []uint64
	// A reordered plan's replayed matches, flattened: per match nPos
	// keys and nSlots bindings, its conditions and sources ending at
	// bufEnds[i]; perm is the sort's scratch.
	bufKeys  []uint64
	bufSlots []cond.Term
	bufConds []*cond.Formula
	bufSrcs  []Source
	bufEnds  [][2]int
	perm     []int
}

// resize returns s with length n, reusing its array when it is large
// enough; the elements keep their old values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// run executes one rule application: discovery in order (a permutation
// of p's positive slots; reordered when it is not the identity),
// replay and emission in written order.
func (x *executor) run(u unit, order []int, reordered bool) error {
	p := u.p
	x.p, x.lo, x.hi, x.order, x.reordered = p, u.lo, u.hi, order, reordered
	x.lits = p.lits
	if reordered {
		x.lits = x.planned
	}
	x.rels = x.rels[:0]
	for i := range p.lits {
		x.rels = append(x.rels, x.e.store.Rel(p.lits[i].pred))
	}
	x.hits = resize(x.hits, p.nPos)
	x.ends = resize(x.ends, p.nPos+1)
	x.keys = resize(x.keys, p.nPos)
	x.dslots = resize(x.dslots, p.nSlots)
	x.m.slots = resize(x.m.slots, p.nSlots)
	x.replayed = 0
	x.bufKeys, x.bufSlots, x.bufConds, x.bufSrcs = x.bufKeys[:0], x.bufSlots[:0], x.bufConds[:0], x.bufSrcs[:0]
	x.bufEnds = x.bufEnds[:0]
	if err := x.extend(0); err != nil {
		return err
	}
	if reordered {
		return x.emitSorted()
	}
	return nil
}

// extend discovers the candidates for the k-th slot of the order and
// extends the match with each that matches; a complete match goes to
// leaf.
func (x *executor) extend(k int) error {
	if k == x.p.nPos {
		return x.leaf()
	}
	s := x.order[k]
	rel := x.rels[s]
	if s == 0 && x.p.fed {
		for idx := x.lo; idx < x.hi; idx++ {
			if err := x.accept(k, rel.Tuple(idx), idx); err != nil {
				return err
			}
		}
		return nil
	}
	if rel == nil {
		return nil
	}
	var idxs []int
	if x.reordered {
		idxs = x.e.plannedCandidates(rel, &x.lits[s], x.dslots)
	} else {
		idxs = x.e.candidates(rel, &x.lits[s], x.m.slots)
	}
	for _, idx := range idxs {
		if err := x.accept(k, rel.Tuple(idx), idx); err != nil {
			return err
		}
	}
	return nil
}

// accept matches tp (at store index idx) to the k-th
// slot of the order, replays what it can, and extends the match one
// level deeper. Written order replays each slot as discovery reaches
// it, and the replay's matcher makes discovery's checks and bindings.
// A reordered plan replays complete matches only, from the first slot
// whose tuple changed since the last replay.
func (x *executor) accept(k int, tp ctable.Tuple, idx int) error {
	s := x.order[k]
	if x.reordered && !discover(&x.lits[s], tp, x.dslots) {
		return nil
	}
	x.hits[s] = idx
	x.replayed = min(x.replayed, s)
	if !x.reordered || k == x.p.nPos-1 {
		for ; x.replayed <= k; x.replayed++ {
			if !x.replay(x.replayed) {
				return nil
			}
		}
	}
	return x.extend(k + 1)
}

// discover is the discovery-time matcher: it binds slots and rejects
// syntactically impossible combinations (constant against a different
// constant) without building condition formulas — the written-order
// replay rebuilds those.
func discover(l *litPlan, tp ctable.Tuple, slots []cond.Term) bool {
	for c := range l.args {
		a := &l.args[c]
		v := tp.Values[c]
		switch a.kind {
		case TConst:
			if v.IsConst() && a.sym != v {
				return false
			}
		case TVar:
			if a.bind {
				slots[a.slot] = v
				continue
			}
			if b := slots[a.slot]; b.IsConst() && v.IsConst() && b != v {
				return false
			}
		}
	}
	return true
}

// groupShift places candidates' constants-vs-c-variables bucket bit
// above any realistic store index in the per-slot order key.
const groupShift = 40

// replay matches slot s's discovered tuple under the written-order
// roles, extending the replay bindings, and pushes the slot's tuple
// condition, extra equalities and source onto the replayed ones. It
// reports false when the written-order matcher rejects the combination
// (two constants claimed the same variable); no order may emit it.
//
// In a reordered plan it first records the slot's order key, the
// position written order visits the tuple at: its store index, with a
// bit above it, for a literal other than the fed one, when the tuple
// is in the c-variable bucket of the column candidates probes under the
// bindings of the slots before s.
func (x *executor) replay(s int) bool {
	l, tp := &x.p.lits[s], x.rels[s].Tuple(x.hits[s])
	if x.reordered {
		x.keys[s] = uint64(x.hits[s])
		if s > 0 || !x.p.fed {
			if col, _, ok := l.probeKey(x.m.slots); ok && !x.e.opts.NoIndex && tp.Values[col].IsCVar() {
				x.keys[s] |= 1 << groupShift
			}
		}
	}
	extra, ok := x.m.match(l, tp)
	if !ok {
		return false
	}
	x.conds = append(x.conds[:x.ends[s]], tp.Condition())
	if !extra.IsTrue() {
		x.conds = append(x.conds, extra)
	}
	x.ends[s+1] = len(x.conds)
	if x.e.needSrcs {
		x.srcs = append(x.srcs[:s], Source{Pred: l.pred, Tuple: tp})
	}
	return true
}

// leaf completes a match whose positives are all replayed with the
// negations under the replay bindings: written order emits it at once,
// a reordered plan buffers it for emitSorted.
func (x *executor) leaf() error {
	p, e := x.p, x.e
	x.conds = x.conds[:x.ends[p.nPos]]
	if e.needSrcs {
		x.srcs = x.srcs[:p.nPos]
	}
	for i := p.nPos; i < len(p.lits); i++ {
		l := &p.lits[i]
		f, pattern := e.negation(l, x.rels[i], x.m.slots)
		if f.IsFalse() {
			return nil
		}
		x.conds = append(x.conds, f)
		if e.needSrcs {
			x.srcs = append(x.srcs, Source{Pred: l.pred, Tuple: ctable.NewTuple(pattern, f), Negated: true})
		}
	}
	if !x.reordered {
		return e.emit(p, x.m.slots, x.conds, x.srcs)
	}
	x.bufKeys = append(x.bufKeys, x.keys...)
	x.bufSlots = append(x.bufSlots, x.m.slots...)
	x.bufConds = append(x.bufConds, x.conds...)
	x.bufSrcs = append(x.bufSrcs, x.srcs...)
	x.bufEnds = append(x.bufEnds, [2]int{len(x.bufConds), len(x.bufSrcs)})
	return nil
}

// emitSorted hands a reordered plan's buffered matches to emit in
// written order.
func (x *executor) emitSorted() error {
	nPos, ns := x.p.nPos, x.p.nSlots
	x.perm = x.perm[:0]
	for i := range x.bufEnds {
		x.perm = append(x.perm, i)
	}
	slices.SortStableFunc(x.perm, func(a, b int) int {
		return slices.Compare(x.bufKeys[a*nPos:(a+1)*nPos], x.bufKeys[b*nPos:(b+1)*nPos])
	})
	for _, i := range x.perm {
		var start [2]int
		if i > 0 {
			start = x.bufEnds[i-1]
		}
		end := x.bufEnds[i]
		if err := x.e.emit(x.p, x.bufSlots[i*ns:(i+1)*ns], x.bufConds[start[0]:end[0]], x.bufSrcs[start[1]:end[1]]); err != nil {
			return err
		}
	}
	return nil
}

// candidates narrows the tuples for a positive literal in written
// order: the first probe column bound to a constant (the literal's own,
// or a variable's binding) is probed. A c-variable at that column is
// still a candidate (it may equal the constant under a condition), so
// the candidates are the column's constant bucket, then its c-variable
// list — the order the replay keys encode.
func (e *engine) candidates(rel *relstore.Relation, l *litPlan, slots []cond.Term) []int {
	if e.opts.NoIndex {
		return rel.All()
	}
	if col, key, ok := l.probeKey(slots); ok {
		return rel.Candidates(col, key)
	}
	return rel.All()
}

// plannedCandidates narrows the tuples for one literal of a reordered
// plan, intersecting the candidate lists of every probe column bound
// to a constant. On two or more columns the result comes in store
// order, not in candidates' order, so only a reordered plan, whose
// emissions are sorted, may enumerate with it.
func (e *engine) plannedCandidates(rel *relstore.Relation, l *litPlan, slots []cond.Term) []int {
	if e.opts.NoIndex {
		return rel.All()
	}
	var cols []int
	var keys []cond.Term
	for _, c := range l.probe {
		a := &l.args[c]
		key := a.sym
		if a.kind == TVar {
			if key = slots[a.slot]; key.IsCVar() {
				continue
			}
		}
		cols = append(cols, c)
		keys = append(keys, key)
	}
	switch len(cols) {
	case 0:
		return rel.All()
	case 1:
		return rel.Candidates(cols[0], keys[0])
	default:
		return rel.CandidatesMulti(cols, keys)
	}
}
