package faurelog

import (
	"math/bits"

	"faure/internal/cond"
	"faure/internal/ctable"
)

// Partitions maps every predicate of a partitioned program to its
// partition column (see Partition).
type Partitions map[string]int

// Partition reports whether the program splits into independent
// partitions and, if so, the partition column of every predicate it
// names. A program is partitioned when each predicate p has a column
// c(p) such that every rule binds one program variable at c(head) and
// at c(lit) of each body literal, positive and negated. A fact rule, a
// 0-ary predicate or a constant (or c-variable) at a partition column
// makes the program unpartitioned, and Partition returns nil.
//
// When every row of the relations the program names holds a constant
// at its partition column, each rule match binds the partition
// variable to that constant, so all of a match's body tuples and the
// derived head share one partition value; a negated literal, whose
// pattern holds the value too, only ever meets tuples of the same
// partition. Evaluating the program over only some partitions' rows
// therefore emits, for those partitions, exactly what the evaluation
// over every row emits, in the same order. Touch, Restrict and Splice
// find the partitions an update touches, build such an evaluation's
// input and place its result.
//
// Where several columns qualify, the lowest column of the first
// predicate (by name) that keeps a choice is taken; when that choice
// fails another rule, the program counts as unpartitioned.
func Partition(p *Program) Partitions {
	if p.Validate() != nil {
		return nil
	}
	dom := map[string]uint64{}
	for _, r := range p.Rules {
		if len(r.Body) == 0 {
			return nil
		}
		for _, a := range append([]Atom{r.Head}, r.Body...) {
			// Columns are bits of a word; a predicate of more than 64
			// columns is left unpartitioned rather than tracked apart.
			if n := len(a.Args); n == 0 || n > 64 {
				return nil
			}
			dom[a.Pred] = 1<<len(a.Args) - 1
		}
	}
	for {
		if !narrowPartition(p.Rules, dom) {
			return nil
		}
		first := ""
		for pred, d := range dom {
			if bits.OnesCount64(d) > 1 && (first == "" || pred < first) {
				first = pred
			}
		}
		if first == "" {
			break
		}
		dom[first] = 1 << bits.TrailingZeros64(dom[first])
	}
	cols := make(Partitions, len(dom))
	for pred, d := range dom {
		cols[pred] = bits.TrailingZeros64(d)
	}
	return cols
}

// narrowPartition removes, until nothing changes, every candidate
// column that some rule cannot use: a head column qualifies when it
// holds a variable that every body literal holds at one of its
// remaining candidates (the same column for every occurrence of a
// predicate), and a body column qualifies when a qualifying head
// column's variable sits there. It reports false when a predicate is
// left without candidates.
func narrowPartition(rules []Rule, dom map[string]uint64) bool {
	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			h := r.Head
			supported := map[string]uint64{h.Pred: 0}
			for _, l := range r.Body {
				supported[l.Pred] = 0
			}
			for d := dom[h.Pred]; d != 0; d &= d - 1 {
				c := bits.TrailingZeros64(d)
				if h.Args[c].Kind != TVar {
					continue
				}
				allowed := map[string]uint64{}
				for _, l := range r.Body {
					m, seen := allowed[l.Pred]
					if !seen {
						m = dom[l.Pred]
						if l.Pred == h.Pred {
							m &= 1 << c
						}
					}
					allowed[l.Pred] = m & varColumns(l, h.Args[c].Name)
				}
				ok := true
				for _, m := range allowed {
					ok = ok && m != 0
				}
				if !ok {
					continue
				}
				supported[h.Pred] |= 1 << c
				for q, m := range allowed {
					supported[q] |= m
				}
			}
			for q, m := range supported {
				if nd := dom[q] & m; nd != dom[q] {
					if nd == 0 {
						return false
					}
					dom[q] = nd
					changed = true
				}
			}
		}
	}
	return true
}

// varColumns returns the columns at which the literal holds the
// program variable v, one bit per column.
func varColumns(a Atom, v string) uint64 {
	var m uint64
	for i, t := range a.Args {
		if t.Kind == TVar && t.Name == v {
			m |= 1 << i
		}
	}
	return m
}

// Touch adds to touched the partition value of a change to a row of
// pred, the constant the row holds at pred's partition column. It
// reports false when the row holds no constant there: the change may
// then touch every partition, and the caller must evaluate unscoped. A
// change to a relation pt does not name touches no partition.
func (pt Partitions) Touch(touched map[cond.Term]bool, pred string, values []cond.Term) bool {
	col, named := pt[pred]
	if !named {
		return true
	}
	if col >= len(values) || !values[col].IsConst() {
		return false
	}
	touched[values[col]] = true
	return true
}

// Restrict returns the input of an evaluation scoped to the touched
// partition values: a database holding, of every relation pt names,
// in's rows in those partitions, in their order. Rows of the wrong
// arity are left out, as the engine's load leaves them out.
//
// It reports false when a row of in, or of parent, holds no constant
// at its relation's partition column. Such a row may belong to every
// partition: in in, a scoped evaluation would miss what it derives
// outside the touched partitions; in parent, the database Splice
// keeps rows from, Splice would keep what it derived even where the
// update removed its source. The caller must then evaluate unscoped.
func (pt Partitions) Restrict(parent, in *ctable.Database, touched map[cond.Term]bool) (*ctable.Database, bool) {
	if _, ok := pt.restrict(parent, nil); !ok {
		return nil, false
	}
	return pt.restrict(in, touched)
}

func (pt Partitions) restrict(db *ctable.Database, touched map[cond.Term]bool) (*ctable.Database, bool) {
	out := &ctable.Database{Tables: make(map[string]*ctable.Table, len(pt)), Doms: db.Doms}
	for pred, col := range pt {
		tbl := db.Table(pred)
		if tbl == nil {
			continue
		}
		arity := tbl.Schema.Arity()
		if col >= arity {
			return nil, false
		}
		kept := &ctable.Table{Schema: tbl.Schema}
		for _, tp := range tbl.Tuples {
			if len(tp.Values) != arity {
				continue
			}
			v := tp.Values[col]
			if !v.IsConst() {
				return nil, false
			}
			if touched[v] {
				kept.Tuples = append(kept.Tuples, tp)
			}
		}
		out.AddTable(kept)
	}
	return out, true
}

// Splice builds a derived relation after an evaluation scoped to the
// touched partitions: parent's rows outside them, in their order,
// followed by scoped's rows, the scoped evaluation's relation pred.
// The rows go into a freshly allocated slice, because readers of the
// parent database may hold its array.
func (pt Partitions) Splice(pred string, parent, scoped *ctable.Table, touched map[cond.Term]bool) *ctable.Table {
	col := pt[pred]
	out := &ctable.Table{Schema: scoped.Schema, Tuples: make([]ctable.Tuple, 0, len(parent.Tuples)+len(scoped.Tuples))}
	for _, tp := range parent.Tuples {
		if !touched[tp.Values[col]] {
			out.Tuples = append(out.Tuples, tp)
		}
	}
	out.Tuples = append(out.Tuples, scoped.Tuples...)
	return out
}
