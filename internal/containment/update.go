package containment

import (
	"fmt"
	"sort"
	"strconv"

	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/faurelog"
	"faure/internal/obs"
	"faure/internal/rewrite"
	"faure/internal/solver"
)

// SubsumesAfterUpdate is the category (ii) test: knowing both the
// constraints that hold *before* the update and the update itself,
// does the target constraint hold *after* the update?
//
// Following the paper, the target is first rewritten to reflect the
// update (the Listing 4 construction, semantically): each literal of a
// target panic rule is interpreted against the post-update state
// post(P) = (pre(P) \ deletes) ∪ inserts, while the canonical database
// — on which the known constraints are evaluated — models the
// pre-update state:
//
//   - a positive literal P(u) with P updated becomes a pre-state tuple
//     guarded by a fresh selector s̄, with the assumption
//     (s̄ = 1 ∧ u ∉ deletes) ∨ u ∈ inserts — u is in the post state
//     either because it was already present and survived the deletes,
//     or because the update inserted it;
//   - a negated literal ¬P(u) with P updated adds the assumption
//     u ∉ inserts and allows the pre state to contain u only when the
//     update deletes it;
//   - untouched relations freeze exactly as in the category (i) test.
//
// The check then proceeds as in Subsumes: the knowns must derive panic
// in every world of the canonical pre-state consistent with the
// assumption.
func SubsumesAfterUpdate(target Constraint, u rewrite.Update, known []Constraint, doms solver.Domains, schema *Schema) (Result, error) {
	return SubsumesAfterUpdateWith(target, u, known, doms, schema, Opts{})
}

// SubsumesAfterUpdateWith is SubsumesAfterUpdate with full
// cross-cutting context. Its observer (nil disables) receives a
// "containment.subsumes_after_update" span with one
// "containment.mapping" child per target panic rule, and the category
// (ii) check/outcome counters; see SubsumesWith for budget semantics.
func SubsumesAfterUpdateWith(target Constraint, u rewrite.Update, known []Constraint, doms solver.Domains, schema *Schema, opt Opts) (Result, error) {
	o := opt.Obs
	obsOn := o != nil && o.Enabled()
	ob := obs.OrNop(o)
	var span obs.Span
	if obsOn {
		span = ob.StartSpan("containment.subsumes_after_update",
			obs.String("target", target.Name), obs.Int("known", int64(len(known))))
		defer span.End()
	}
	combined, err := combinePrograms(known)
	if err != nil {
		return Result{}, err
	}
	base := map[string]int{}
	for rel, n := range target.BaseRelations() {
		base[rel] = n
	}
	for _, k := range known {
		for rel, n := range k.BaseRelations() {
			if prev, ok := base[rel]; ok && prev != n {
				return Result{}, fmt.Errorf("containment: relation %s used with arities %d and %d", rel, prev, n)
			}
			base[rel] = n
		}
	}
	for pred := range u.Touched() {
		if n, ok := base[pred]; ok {
			for _, ch := range append(u.InsertsFor(pred), u.DeletesFor(pred)...) {
				if len(ch.Values) != n {
					return Result{}, fmt.Errorf("containment: change %v has arity %d, relation %s has %d", ch, len(ch.Values), pred, n)
				}
			}
		}
	}
	idb := target.Program.IDB()
	for ri, r := range target.Program.Rules {
		if r.Head.Pred != PanicPred {
			return Result{}, fmt.Errorf("containment: target %s has non-flat rule %v", target.Name, r)
		}
		for _, a := range r.Body {
			if idb[a.Pred] {
				return Result{}, fmt.Errorf("containment: target %s rule %v references intermediate predicate %s", target.Name, r, a.Pred)
			}
		}
		if obsOn {
			ob.Count("containment.category_ii.checks", 1)
		}
		if err := opt.Budget.Check(fmt.Sprintf("containment mapping %d", ri)); err != nil {
			return Result{}, err
		}
		var mapSpan obs.Span
		if obsOn {
			mapSpan = span.StartChild("containment.mapping", obs.Int("rule", int64(ri)))
		}
		ok, err := ruleContainedAfterUpdate(r, u, combined, base, doms, schema, mapSpan, opt)
		if obsOn {
			mapSpan.End()
		}
		if err != nil {
			return Result{}, err
		}
		if !ok {
			if obsOn {
				ob.Count("containment.category_ii.not_contained", 1)
				span.SetAttrs(obs.Bool("contained", false))
			}
			return Result{Contained: false, Witness: r.String()}, nil
		}
	}
	if obsOn {
		ob.Count("containment.category_ii.contained", 1)
		span.SetAttrs(obs.Bool("contained", true))
	}
	return Result{Contained: true}, nil
}

// ruleContainedAfterUpdate runs the category (ii) check for one target
// panic rule: build the generic pre-state instance, evaluate the
// containers on it, and discharge the implication.
func ruleContainedAfterUpdate(r faurelog.Rule, u rewrite.Update, combined *faurelog.Program, base map[string]int, doms solver.Domains, schema *Schema, mapSpan obs.Span, opt Opts) (bool, error) {
	o := opt.Obs
	obsOn := o != nil && o.Enabled()
	fr := NewFreezer(doms, schema)
	db, assumption, err := fr.canonicalDBAfterUpdate(r, base, u)
	if err != nil {
		return false, err
	}
	res, err := faurelog.Eval(combined, db, faurelog.Options{Observer: o, Budget: opt.Budget})
	if err != nil {
		return false, err
	}
	if res.Truncated != nil {
		// See ruleContained: a partial panic derivation proves nothing.
		return false, res.Truncated
	}
	var panics []*cond.Formula
	if tbl := res.DB.Table(PanicPred); tbl != nil {
		for _, tp := range tbl.Tuples {
			panics = append(panics, tp.Condition())
		}
	}
	s := solver.New(db.Doms)
	s.SetBudget(opt.Budget)
	if obsOn {
		s.SetObserver(o)
		mapSpan.SetAttrs(obs.Int("panic_tuples", int64(len(panics))))
	}
	sat, err := s.Satisfiable(assumption)
	if err != nil {
		return false, err
	}
	if !sat {
		// The post-update violation scenario is unrealisable: vacuously
		// contained.
		return true, nil
	}
	contained, err := s.Implies(assumption, cond.Or(panics...))
	if obsOn && err == nil {
		mapSpan.SetAttrs(obs.Bool("contained", contained))
	}
	return contained, err
}

// diffChange builds "row differs from the change tuple somewhere".
func diffChange(row []cond.Term, ch rewrite.Change) *cond.Formula {
	var diff []*cond.Formula
	for i, v := range row {
		diff = append(diff, cond.Compare(v, cond.Ne, ch.Values[i]))
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
		out = cond.And(out, diffChange(row, d))
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

// canonicalDBAfterUpdate builds the generic pre-state instance whose
// post-update image satisfies the rule body; see SubsumesAfterUpdate.
func (fr *Freezer) canonicalDBAfterUpdate(r faurelog.Rule, base map[string]int, u rewrite.Update) (*ctable.Database, *cond.Formula, error) {
	db := ctable.NewDatabase()
	for name, d := range fr.base {
		db.DeclareVar(name, d)
	}
	touched := u.Touched()
	varMap := map[string]cond.Term{}
	frz := func(t faurelog.Term, rel string, col int) cond.Term {
		if t.Kind != faurelog.TVar {
			return t.Symbol()
		}
		v, ok := varMap[t.Name]
		if !ok {
			name := fr.Fresh(t.Name)
			v = cond.CVar(name)
			varMap[t.Name] = v
			db.DeclareVar(name, fr.schema.ColDomain(rel, col))
		}
		return v
	}
	ensure := func(pred string, arity int) *ctable.Table {
		tbl := db.Table(pred)
		if tbl == nil {
			attrs := make([]string, arity)
			for i := range attrs {
				attrs[i] = "a" + strconv.Itoa(i)
			}
			tbl = &ctable.Table{Schema: ctable.Schema{Name: pred, Attrs: attrs}}
			db.AddTable(tbl)
		}
		return tbl
	}

	assumption := cond.True()
	// Frozen pre-state tuples for the positive literals. rowsSel maps
	// each frozen positive row to its presence condition in the pre
	// state (true, or s̄ = 1 for updated relations).
	type frozenRow struct {
		row     []cond.Term
		present *cond.Formula
	}
	positives := map[string][]frozenRow{}
	for _, a := range r.Body {
		if a.Neg {
			continue
		}
		tbl := ensure(a.Pred, len(a.Args))
		row := make([]cond.Term, len(a.Args))
		for i, t := range a.Args {
			row[i] = frz(t, a.Pred, i)
		}
		present := cond.True()
		if touched[a.Pred] {
			selName := fr.Fresh("s")
			db.DeclareVar(selName, solver.BoolDomain())
			present = cond.Compare(cond.CVar(selName), cond.Eq, cond.Int(1))
			// Post-presence: already present and not deleted, or
			// freshly inserted.
			assumption = cond.And(assumption, cond.Or(
				cond.And(present, notDeleted(row, u, a.Pred)),
				inserted(row, u, a.Pred),
			))
		}
		positives[a.Pred] = append(positives[a.Pred], frozenRow{row, present})
		if err := tbl.Insert(ctable.NewTuple(row, present)); err != nil {
			return nil, nil, err
		}
	}

	// Negated literals: post-absence of u.
	exclusions := map[string][][]cond.Term{}
	for _, a := range r.Body {
		if !a.Neg {
			continue
		}
		ensure(a.Pred, len(a.Args))
		row := make([]cond.Term, len(a.Args))
		for i, t := range a.Args {
			row[i] = frz(t, a.Pred, i)
		}
		if touched[a.Pred] {
			// u must not be inserted...
			assumption = cond.And(assumption, cond.Not(inserted(row, u, a.Pred)))
		}
		exclusions[a.Pred] = append(exclusions[a.Pred], row)
		// ...and each positive frozen pre-tuple of the same relation
		// may coincide with u only when the update deletes it.
		for _, fp := range positives[a.Pred] {
			escape := diffChange(fp.row, rewrite.Change{Pred: a.Pred, Values: row})
			if touched[a.Pred] {
				escape = cond.Or(escape, cond.Not(notDeleted(fp.row, u, a.Pred)))
			}
			assumption = cond.And(assumption, cond.Or(cond.Not(fp.present), escape))
		}
	}

	// Guarded universal tuples for every base relation; exclusions are
	// relaxed by the deletes (the pre state may contain an excluded
	// tuple that the update removes).
	names := make([]string, 0, len(base))
	for rel := range base {
		names = append(names, rel)
	}
	sort.Strings(names)
	for _, rel := range names {
		arity := base[rel]
		tbl := ensure(rel, arity)
		row := make([]cond.Term, arity)
		for i := range row {
			name := fr.Fresh("z")
			db.DeclareVar(name, fr.schema.ColDomain(rel, i))
			row[i] = cond.CVar(name)
		}
		selName := fr.Fresh("e")
		db.DeclareVar(selName, solver.BoolDomain())
		parts := []*cond.Formula{cond.Compare(cond.CVar(selName), cond.Eq, cond.Int(1))}
		for _, excl := range exclusions[rel] {
			esc := diffChange(row, rewrite.Change{Pred: rel, Values: excl})
			if touched[rel] {
				esc = cond.Or(esc, cond.Not(notDeleted(row, u, rel)))
			}
			parts = append(parts, esc)
		}
		if err := tbl.Insert(ctable.NewTuple(row, cond.And(parts...))); err != nil {
			return nil, nil, err
		}
	}

	bind := map[string]cond.Term{}
	for v, t := range varMap {
		bind[v] = t
	}
	for _, c := range r.Comps {
		f, err := instantiateComp(c, bind)
		if err != nil {
			return nil, nil, err
		}
		assumption = cond.And(assumption, f)
	}
	if r.HeadCond != nil {
		f, err := InstantiateCondExpr(r.HeadCond, bind)
		if err != nil {
			return nil, nil, err
		}
		assumption = cond.And(assumption, f)
	}
	return db, assumption, nil
}
