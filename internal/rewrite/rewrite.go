// Package rewrite implements network updates and the paper's Listing 4
// constraint rewrite: given a constraint C and an update U (tuples
// inserted into and deleted from base relations), it constructs C'
// such that C' holds on the pre-update state exactly when C holds on
// the post-update state. The construction chains helper relations —
// P1 copies P plus the inserted facts, P2 filters out the deleted
// tuples column-by-column — and substitutes the final relation for P
// in the constraint (the q19–q24 pattern, following Levy–Sagiv).
package rewrite

import (
	"fmt"
	"strings"

	"faure/internal/budget"
	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/faultinject"
	"faure/internal/faurelog"
	"faure/internal/obs"
)

// Change inserts or deletes one tuple of a base relation. Values are
// c-domain symbols (constants, or c-variables for partially-known
// updates).
type Change struct {
	Pred   string
	Values []cond.Term
}

// String renders the change as Pred(v1, ..., vk).
func (c Change) String() string {
	parts := make([]string, len(c.Values))
	for i, v := range c.Values {
		parts[i] = v.String()
	}
	return c.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// Update is a set of insertions and deletions applied atomically.
type Update struct {
	Inserts []Change
	Deletes []Change
}

// String renders the update compactly.
func (u Update) String() string {
	var parts []string
	for _, c := range u.Inserts {
		parts = append(parts, "+"+c.String())
	}
	for _, c := range u.Deletes {
		parts = append(parts, "-"+c.String())
	}
	return strings.Join(parts, " ")
}

// Touched returns the names of the relations the update modifies.
func (u Update) Touched() map[string]bool {
	out := map[string]bool{}
	for _, c := range u.Inserts {
		out[c.Pred] = true
	}
	for _, c := range u.Deletes {
		out[c.Pred] = true
	}
	return out
}

// InsertsFor returns the update's insertions into the named relation.
func (u Update) InsertsFor(pred string) []Change {
	var out []Change
	for _, c := range u.Inserts {
		if c.Pred == pred {
			out = append(out, c)
		}
	}
	return out
}

// DeletesFor returns the update's deletions from the named relation.
func (u Update) DeletesFor(pred string) []Change {
	var out []Change
	for _, c := range u.Deletes {
		if c.Pred == pred {
			out = append(out, c)
		}
	}
	return out
}

// Validate checks that every change matches its relation's arity in
// the database (relations absent from the database are created by
// Apply, so they are only checked for internal consistency).
func (u Update) Validate(db *ctable.Database) error {
	arity := map[string]int{}
	for name, t := range db.Tables {
		arity[name] = t.Schema.Arity()
	}
	check := func(c Change) error {
		if n, ok := arity[c.Pred]; ok {
			if n != len(c.Values) {
				return fmt.Errorf("rewrite: change %v has arity %d, relation has %d", c, len(c.Values), n)
			}
		} else {
			arity[c.Pred] = len(c.Values)
		}
		return nil
	}
	for _, c := range u.Inserts {
		if err := check(c); err != nil {
			return err
		}
	}
	for _, c := range u.Deletes {
		if err := check(c); err != nil {
			return err
		}
	}
	return nil
}

// Apply materialises the update on a copy of the database: insertions
// become unconditioned tuples; a deletion of tuple d restricts every
// existing tuple t of the relation with the pointwise disequality
// t ≠ d (the c-table encoding of removal, which stays correct when t
// or d contain c-variables).
func Apply(db *ctable.Database, u Update) (*ctable.Database, error) {
	return ApplyBudgeted(db, u, nil)
}

// ApplyBudgeted is Apply under a resource budget: cancellation and the
// wall clock are polled per change (each deletion rewrites a whole
// relation, the coarse unit of work here). A nil budget disables the
// checks.
//
// Atomicity contract: the input database is never mutated, whatever
// the outcome. All work happens on a private clone; on success the
// clone is returned, and on any error — validation failure, budget
// trip, injected fault — the clone is discarded and the caller's
// database is bit-identical to what it was before the call. A
// long-lived caller (the faure-serve writer loop) may therefore keep
// serving the input database after a failed apply and retry later
// without any repair step. The faultinject point rewrite.apply fires
// once per change (deletes first, then inserts), so tests can fail the
// Nth change of an update deterministically.
func ApplyBudgeted(db *ctable.Database, u Update, bud *budget.B) (*ctable.Database, error) {
	if err := u.Validate(db); err != nil {
		return nil, err
	}
	out := db.Clone()
	for _, c := range u.Deletes {
		if faultinject.Armed() {
			if err := faultinject.Fire(faultinject.RewriteApply); err != nil {
				return nil, err
			}
		}
		if err := bud.Check("update delete " + c.Pred); err != nil {
			return nil, err
		}
		tbl := out.Table(c.Pred)
		if tbl == nil {
			continue
		}
		kept := tbl.Tuples[:0]
		for _, tp := range tbl.Tuples {
			var diff []*cond.Formula
			for i, v := range tp.Values {
				diff = append(diff, cond.Compare(v, cond.Ne, c.Values[i]))
			}
			nc := cond.And(tp.Condition(), cond.Or(diff...))
			if nc.IsFalse() {
				continue
			}
			kept = append(kept, ctable.NewTuple(tp.Values, nc))
		}
		tbl.Tuples = kept
	}
	for _, c := range u.Inserts {
		if faultinject.Armed() {
			if err := faultinject.Fire(faultinject.RewriteApply); err != nil {
				return nil, err
			}
		}
		if err := bud.Check("update insert " + c.Pred); err != nil {
			return nil, err
		}
		tbl := out.Table(c.Pred)
		if tbl == nil {
			attrs := make([]string, len(c.Values))
			for i := range attrs {
				attrs[i] = fmt.Sprintf("a%d", i)
			}
			tbl = &ctable.Table{Schema: ctable.Schema{Name: c.Pred, Attrs: attrs}}
			out.AddTable(tbl)
		}
		if err := tbl.Insert(ctable.NewTuple(c.Values, cond.True())); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RewriteConstraint builds C' from C per Listing 4: for every relation
// P the update touches, a chain
//
//	P_u0(x...) :- P(x...).        % copy (q20)
//	P_u0(ins).                    % inserted facts (q19)
//	P_u1(x...) :- P_u0(x...), x_i != d_i.   % one rule per column of
//	                                        % each deleted tuple (q21, q22)
//
// is emitted and the final relation of the chain replaces P in the
// constraint's rules (q24). Evaluating C' on the pre-update state is
// equivalent to evaluating C on the post-update state.
func RewriteConstraint(c *faurelog.Program, u Update) (*faurelog.Program, error) {
	return RewriteConstraintWith(c, u, nil, nil)
}

// RewriteConstraintWith is RewriteConstraint with observability and a
// resource budget. o (nil disables) receives a "rewrite.constraint"
// span plus the insert/delete counts and the per-relation chain-length
// distribution (1 copy stage + one filter stage per deleted tuple).
// Cancellation and the wall clock are polled once per rewritten
// relation chain (the construction itself is linear in the update and
// program sizes). A nil budget disables the checks.
func RewriteConstraintWith(c *faurelog.Program, u Update, o obs.Observer, bud *budget.B) (*faurelog.Program, error) {
	obsOn := o != nil && o.Enabled()
	ob := obs.OrNop(o)
	var span obs.Span
	if obsOn {
		span = ob.StartSpan("rewrite.constraint",
			obs.Int("inserts", int64(len(u.Inserts))), obs.Int("deletes", int64(len(u.Deletes))))
		defer span.End()
		ob.Observe("rewrite.inserts", float64(len(u.Inserts)))
		ob.Observe("rewrite.deletes", float64(len(u.Deletes)))
	}
	touched := u.Touched()
	idb := c.IDB()
	for pred := range touched {
		if idb[pred] {
			return nil, fmt.Errorf("rewrite: update touches derived predicate %s", pred)
		}
	}
	// Determine arities from the constraint's own use of the updated
	// relations; relations the constraint never mentions need no
	// chain.
	arity := map[string]int{}
	for _, r := range c.Rules {
		for _, a := range r.Body {
			if touched[a.Pred] {
				arity[a.Pred] = len(a.Args)
			}
		}
	}
	out := &faurelog.Program{}
	final := map[string]string{}
	// Chain names must not collide with predicates the constraint
	// already defines (e.g. the chains of a previous rewrite when
	// updates are sequenced).
	freshChain := func(pred string, i int) string {
		name := fmt.Sprintf("%s_u%d", pred, i)
		for idb[name] {
			name += "x"
		}
		return name
	}
	for pred, k := range arity {
		if err := bud.Check("rewrite chain for " + pred); err != nil {
			return nil, err
		}
		for _, ch := range append(u.InsertsFor(pred), u.DeletesFor(pred)...) {
			if len(ch.Values) != k {
				return nil, fmt.Errorf("rewrite: change %v has arity %d, constraint uses %s with arity %d", ch, len(ch.Values), pred, k)
			}
		}
		vars := make([]faurelog.Term, k)
		for i := range vars {
			vars[i] = faurelog.V(fmt.Sprintf("x%d", i))
		}
		cur := freshChain(pred, 0)
		// Copy rule plus inserted facts.
		out.Rules = append(out.Rules, faurelog.Rule{
			Head: faurelog.Atom{Pred: cur, Args: vars},
			Body: []faurelog.Atom{{Pred: pred, Args: vars}},
		})
		for _, ins := range u.InsertsFor(pred) {
			args := make([]faurelog.Term, k)
			for i, v := range ins.Values {
				if v.IsCVar() {
					args[i] = faurelog.CV(v.S)
				} else {
					args[i] = faurelog.C(v)
				}
			}
			out.Rules = append(out.Rules, faurelog.Rule{Head: faurelog.Atom{Pred: cur, Args: args}})
		}
		// Deletion chain: one stage per deleted tuple, one rule per
		// column (a tuple survives when it differs somewhere).
		for di, del := range u.DeletesFor(pred) {
			next := freshChain(pred, di+1)
			for col := 0; col < k; col++ {
				dv := del.Values[col]
				var dt faurelog.Term
				if dv.IsCVar() {
					dt = faurelog.CV(dv.S)
				} else {
					dt = faurelog.C(dv)
				}
				out.Rules = append(out.Rules, faurelog.Rule{
					Head:  faurelog.Atom{Pred: next, Args: vars},
					Body:  []faurelog.Atom{{Pred: cur, Args: vars}},
					Comps: []faurelog.Comparison{{Sum: []faurelog.Term{vars[col]}, Op: cond.Ne, RHS: dt}},
				})
			}
			cur = next
		}
		final[pred] = cur
		// Chain length for this relation: the copy stage plus one
		// filter stage per deleted tuple.
		if obsOn {
			ob.Observe("rewrite.chain_len", float64(1+len(u.DeletesFor(pred))))
		}
	}
	// Substitute the chain heads into the constraint.
	for _, r := range c.Rules {
		nr := faurelog.Rule{Head: r.Head, HeadCond: r.HeadCond, Comps: r.Comps}
		for _, a := range r.Body {
			if n, ok := final[a.Pred]; ok {
				a.Pred = n
			}
			nr.Body = append(nr.Body, a)
		}
		out.Rules = append(out.Rules, nr)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	if obsOn {
		span.SetAttrs(obs.Int("rules_out", int64(len(out.Rules))))
	}
	return out, nil
}

// Sequence rewrites a constraint through a series of updates applied
// in order: the result, evaluated on the state before u1, is
// equivalent to the original constraint evaluated after u1, ..., un.
// Rewrites therefore compose in reverse: the constraint is first
// rewritten for the last update, then the result for the one before
// it, and so on.
func Sequence(c *faurelog.Program, updates []Update) (*faurelog.Program, error) {
	out := c
	var err error
	for i := len(updates) - 1; i >= 0; i-- {
		out, err = RewriteConstraint(out, updates[i])
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ApplyAll applies updates in order to a copy of the database.
func ApplyAll(db *ctable.Database, updates []Update) (*ctable.Database, error) {
	out := db
	var err error
	for _, u := range updates {
		out, err = Apply(out, u)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
