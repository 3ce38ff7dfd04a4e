package containment

import (
	"faure/internal/cond"
	"faure/internal/rewrite"
	"faure/internal/solver"
)

// SubsumesAfterUpdate is the category (ii) test: knowing both the
// constraints that hold *before* the update and the update itself,
// does the target constraint hold *after* the update? It is the
// category (i) test run over the update-aware canonical database the
// package comment describes — the semantic form of the paper's
// Listing 4 rewrite: the target's literals read the post-update state,
// while the knowns are evaluated on the pre-update state.
func SubsumesAfterUpdate(target Constraint, u rewrite.Update, known []Constraint, doms solver.Domains, schema *Schema) (Result, error) {
	return SubsumesAfterUpdateWith(target, u, known, doms, schema, Opts{})
}

// SubsumesAfterUpdateWith is SubsumesAfterUpdate with full
// cross-cutting context. Its observer (nil disables) receives a
// "containment.subsumes_after_update" span with one
// "containment.mapping" child per target panic rule, and the category
// (ii) check/outcome counters; see SubsumesWith for budget semantics.
func SubsumesAfterUpdateWith(target Constraint, u rewrite.Update, known []Constraint, doms solver.Domains, schema *Schema, opt Opts) (Result, error) {
	return subsumption(target, &u, known, doms, schema, opt)
}

// differs builds "row differs from vals somewhere".
func differs(row, vals []cond.Term) *cond.Formula {
	var diff []*cond.Formula
	for i, v := range row {
		diff = append(diff, cond.Compare(v, cond.Ne, vals[i]))
	}
	return cond.Or(diff...)
}

// eqChange builds "row equals the change tuple pointwise".
func eqChange(row []cond.Term, ch rewrite.Change) *cond.Formula {
	var eqs []*cond.Formula
	for i, v := range row {
		eqs = append(eqs, cond.Compare(v, cond.Eq, ch.Values[i]))
	}
	return cond.And(eqs...)
}

// notDeleted builds "row survives every delete of its relation".
func notDeleted(row []cond.Term, u rewrite.Update, pred string) *cond.Formula {
	out := cond.True()
	for _, d := range u.DeletesFor(pred) {
		out = cond.And(out, differs(row, d.Values))
	}
	return out
}

// inserted builds "row equals some inserted tuple of its relation".
func inserted(row []cond.Term, u rewrite.Update, pred string) *cond.Formula {
	out := cond.False()
	for _, ins := range u.InsertsFor(pred) {
		out = cond.Or(out, eqChange(row, ins))
	}
	return out
}
