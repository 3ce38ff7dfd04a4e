package faurelog

// Cost-guided join planning.
//
// The written-order join (eval.go) evaluates a rule body left to right
// and probes at most one indexed column per literal, so a rule written
// with its fattest relation first degrades to a near-cross-product.
// The planner greedily reorders the positive body literals by their
// estimated candidate count under sideways information passing — pick
// the cheapest literal given the variables bound so far, bind its
// variables, repeat — using the store's O(1) per-column statistics
// (relstore.ColStats). The delta literal of a semi-naive round stays
// pinned first: its tuples are an in-memory slice, and every other
// literal benefits from the variables it binds.
//
// Determinism argument. The evaluation's observable output — table
// contents, conditions, row order, provenance — depends on the
// ORDER emissions reach the commit path: dedup keeps the first
// occurrence, absorption compares each condition against the ones
// committed before it, and row order is insertion order. The planner
// therefore never streams matches in plan order. Instead the planned
// executor:
//
//  1. discovers complete positive matches depth-first in plan order,
//     using multi-column index intersection (CandidatesMulti) and a
//     formula-free matcher (discover) that only binds slots and rejects
//     constant/constant conflicts;
//  2. replays each match in the written (canonical) order — rebuilding
//     bindings, equality conditions and negation conditions exactly as
//     the written-order join would, and dropping combinations that the
//     written-order matcher rejects (a variable claimed by two
//     different constants: such a combination is emitted by neither
//     executor with a satisfiable condition);
//  3. sorts the replayed emissions by a key that encodes, per literal,
//     the position the written-order join would have visited the
//     matched tuple at — the delta slice position for the fed literal,
//     and (cvar-bucket bit, store index) for store literals, mirroring
//     Candidates' constants-then-cvars enumeration — and only then
//     hands them to emit.
//
// The emission sequence is thus exactly the written-order sequence,
// minus combinations whose condition is syntactically contradictory
// (written-order emits them, the eager prune or the final prune drops
// them, and they can never absorb or outlive a satisfiable tuple), so
// final tables, dumps and verdicts are bit-for-bit identical with the
// planner on or off. Only speculative-work counters (pruned, sat
// calls, probes) may differ.

import (
	"sort"

	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/relstore"
)

// planPositives greedily orders the plan's positive literals by
// estimated cost. A fed delta literal (slot 0) stays pinned. It returns
// the canonical slot indexes in execution order and whether that
// differs from the written order. Ties keep the lowest slot, so the
// plan is deterministic for a given frozen store.
func (e *engine) planPositives(p *rulePlan) ([]int, bool) {
	order := make([]int, 0, p.nPos)
	bound := make([]bool, p.nSlots)
	used := make([]bool, p.nPos)
	take := func(slot int) {
		used[slot] = true
		order = append(order, slot)
		for _, a := range p.lits[slot].args {
			if a.kind == TVar {
				bound[a.slot] = true
			}
		}
	}
	if p.fed {
		take(0)
	}
	for len(order) < p.nPos {
		best, bestCost := -1, 0.0
		for s := 0; s < p.nPos; s++ {
			if used[s] {
				continue
			}
			c := e.estimateLiteral(&p.lits[s], bound)
			if best < 0 || c < bestCost {
				best, bestCost = s, c
			}
		}
		take(best)
	}
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

// plannedMatch records, for one canonical slot, the tuple the
// discovery join matched there and its order-key material: the store
// index, or the delta slice position for the fed literal.
type plannedMatch struct {
	tp  ctable.Tuple
	idx int
}

// discoveryLit is a literal's role under the planned order: which of
// its variable occurrences bind (the first in plan order) and which
// columns are bound to a constant symbol or an earlier-bound variable
// when discovery reaches it.
type discoveryLit struct {
	binds []bool
	cols  []int
}

// discoveryOrder derives the per-literal binding roles for a planned
// order of the positive slots.
func (p *rulePlan) discoveryOrder(order []int) []discoveryLit {
	out := make([]discoveryLit, p.nPos)
	bound := make([]bool, p.nSlots)
	for _, slot := range order {
		l := &p.lits[slot]
		d := discoveryLit{binds: make([]bool, len(l.args))}
		for c, a := range l.args {
			if a.kind == TConst || (a.kind == TVar && bound[a.slot]) {
				d.cols = append(d.cols, c)
			}
		}
		for c, a := range l.args {
			if a.kind == TVar && !bound[a.slot] {
				d.binds[c] = true
				bound[a.slot] = true
			}
		}
		out[slot] = d
	}
	return out
}

// discover is the discovery-time matcher: it binds slots and rejects
// syntactically impossible combinations (constant against a different
// constant) without building condition formulas — the written-order
// replay rebuilds those.
func discover(l *litPlan, d *discoveryLit, tp ctable.Tuple, slots []cond.Term) bool {
	for c := range l.args {
		a := &l.args[c]
		v := tp.Values[c]
		switch a.kind {
		case TConst:
			if v.IsConst() && a.sym != v {
				return false
			}
		case TVar:
			if d.binds[c] {
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

// groupShift places Candidates' constants-vs-cvars bucket bit above
// any realistic store index in the per-slot order key.
const groupShift = 40

// runPlanned executes one rule application under the planned literal
// order: discovery in plan order, replay and emission in written
// order (see the package comment's determinism argument). order is the
// planned permutation of the plan's positive slots.
func (e *engine) runPlanned(p *rulePlan, deltaTuples []ctable.Tuple, order []int, sink func(string, ctable.Tuple)) error {
	nPos := p.nPos
	disc := p.discoveryOrder(order)
	rels := e.rels(p)
	matched := make([]plannedMatch, nPos)
	dslots := make([]cond.Term, p.nSlots)
	rm := newMatcher(p)
	rslots := rm.slots

	// The replayed emissions, flattened: per emission nPos order keys and
	// nSlots bindings; its conditions and sources end at condEnd/srcEnd.
	var (
		keys    []uint64
		slotBuf []cond.Term
		condBuf []*cond.Formula
		condEnd []int
		srcBuf  []Source
		srcEnd  []int
	)
	replay := func() error {
		kMark, cMark, sMark := len(keys), len(condBuf), len(srcBuf)
		reject := func() error {
			keys, condBuf, srcBuf = keys[:kMark], condBuf[:cMark], srcBuf[:sMark]
			return nil
		}
		for slot := 0; slot < nPos; slot++ {
			l := &p.lits[slot]
			m := matched[slot]
			if slot == 0 && p.fed {
				keys = append(keys, uint64(m.idx))
			} else {
				var g uint64
				if !e.opts.NoIndex {
					if col, _, ok := l.probeKey(rslots); ok && m.tp.Values[col].IsCVar() {
						g = 1
					}
				}
				keys = append(keys, g<<groupShift|uint64(m.idx))
			}
			extra, ok := rm.match(l, m.tp)
			if !ok {
				// The written-order matcher rejects this combination (two
				// constants claimed the same variable); neither executor
				// may emit it.
				return reject()
			}
			condBuf = append(condBuf, m.tp.Condition())
			if !extra.IsTrue() {
				condBuf = append(condBuf, extra)
			}
			if e.needSrcs {
				srcBuf = append(srcBuf, Source{Pred: l.pred, Tuple: m.tp})
			}
		}
		for i := nPos; i < len(p.lits); i++ {
			l := &p.lits[i]
			f, pattern := e.negation(l, rels[i], rslots)
			if f.IsFalse() {
				return reject()
			}
			if e.needSrcs {
				srcBuf = append(srcBuf, Source{Pred: l.pred, Tuple: ctable.NewTuple(pattern, f), Negated: true})
			}
			condBuf = append(condBuf, f)
		}
		slotBuf = append(slotBuf, rslots...)
		condEnd = append(condEnd, len(condBuf))
		srcEnd = append(srcEnd, len(srcBuf))
		return nil
	}

	var dfs func(k int) error
	dfs = func(k int) error {
		if k == nPos {
			return replay()
		}
		slot := order[k]
		l := &p.lits[slot]
		d := &disc[slot]
		if slot == 0 && p.fed {
			for pos, tp := range deltaTuples {
				if !discover(l, d, tp, dslots) {
					continue
				}
				matched[slot] = plannedMatch{tp: tp, idx: pos}
				if err := dfs(k + 1); err != nil {
					return err
				}
			}
			return nil
		}
		rel := rels[slot]
		if rel == nil {
			return nil
		}
		for _, idx := range e.plannedCandidates(rel, l, d, dslots) {
			tp := rel.Tuple(idx)
			if !discover(l, d, tp, dslots) {
				continue
			}
			matched[slot] = plannedMatch{tp: tp, idx: idx}
			if err := dfs(k + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := dfs(0); err != nil {
		return err
	}

	n := len(condEnd)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool {
		a, b := keys[perm[i]*nPos:], keys[perm[j]*nPos:]
		for k := 0; k < nPos; k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	ns := p.nSlots
	for _, i := range perm {
		cStart, sStart := 0, 0
		if i > 0 {
			cStart, sStart = condEnd[i-1], srcEnd[i-1]
		}
		if err := e.emit(p, slotBuf[i*ns:(i+1)*ns], condBuf[cStart:condEnd[i]], srcBuf[sStart:srcEnd[i]], sink); err != nil {
			return err
		}
	}
	return nil
}

// plannedCandidates narrows the tuples for one literal during planned
// discovery, intersecting the candidate lists of every constant-bound
// column. Unlike the written-order candidates, the result order does
// not matter here: the replay sort restores written order.
func (e *engine) plannedCandidates(rel *relstore.Relation, l *litPlan, d *discoveryLit, slots []cond.Term) []int {
	if e.opts.NoIndex {
		return rel.All()
	}
	var cols []int
	var keys []cond.Term
	for _, c := range d.cols {
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
