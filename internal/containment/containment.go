// Package containment implements the paper's §5 reduction of datalog
// program containment — the engine behind constraint subsumption — to
// query evaluation in fauré-log.
//
// A constraint is a fauré-log program deriving the 0-ary predicate
// panic ("the constraint is violated"). Constraint Q is subsumed by a
// set of constraints {P1, ..., Pk} when every violation of Q is also a
// violation of some Pi; then, knowing the Pi hold, Q must hold too.
// Category (i) asks this of Q itself (Subsumes). Category (ii) asks it
// of Q after a known update U, with the Pi known to hold before U
// (SubsumesAfterUpdate). Both run one test: category (i) is category
// (ii) with no update.
//
// The reduction, following the paper's outline: rewrite each panic
// rule of Q into variable-free form (program variables become fresh
// c-variables, making implicit pattern matching explicit), freeze its
// body literals into a canonical c-table database of the pre-update
// state, and evaluate the candidate containers on it. The canonical
// database is the *generic violating instance*: a literal P(u) of Q
// reads the post-update state post(P) = (pre(P) \ deletes) ∪ inserts,
// and with no update the two states coincide.
//
//   - A positive literal P(u) freezes to a pre-state tuple u. If U does
//     not touch P, the tuple is present with condition true (the
//     violation requires it). If U touches P, a fresh {0,1} selector s̄
//     guards it, with the assumption (s̄ = 1 ∧ u ∉ deletes) ∨
//     u ∈ inserts: u is in the post state because it survived the
//     deletes or because U inserted it.
//   - A negated literal ¬P(u) adds the assumption u ∉ inserts, and each
//     frozen positive tuple of P must differ from u unless U deletes
//     it (a state cannot both contain and not contain a tuple).
//   - Every base relation's unknown content is one universal tuple z̄
//     of fresh c-variables guarded by a fresh {0,1} selector ē: the
//     relation *may* contain an arbitrary tuple (ē = 1) or not
//     (ē = 0). Each negated literal ¬P(u) restricts P's universal tuple
//     to z̄ ≠ u unless U deletes z̄ — the construction sketched in the
//     paper for q9.
//
// With no update, no s̄ is allocated and every clause naming an insert
// or a delete drops out. Q is contained when, under the assumption —
// those clauses plus Q's own comparisons and head condition — the
// containers derive panic in every possible world of the canonical
// database: a single solver implication check.
//
// The panic rules of a target must be flat: their bodies reference
// only base relations. A target that is not flat is first unfolded by
// Flatten; one Flatten rejects (recursive or negated intermediates)
// fails with an error wrapping ErrOutsideFragment. Containers may use
// intermediate predicates freely (C_lb and C_s do).
//
// The test is complete on the paper's examples. Its "contained"
// answers are checked against explicit enumeration by the property
// tests, and under negation they are not always sound: one universal
// tuple cannot stand for several unknown tuples of a relation a
// container negates (TestSubsumptionSoundness draws such cases in some
// runs). Like the paper's verifiers it may also answer "not contained"
// conservatively; the caller reports that as "unknown".
package containment

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"faure/internal/budget"
	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/faurelog"
	"faure/internal/obs"
	"faure/internal/rewrite"
	"faure/internal/solver"
)

// Opts carries the cross-cutting context of a containment check: the
// observer the spans and counters report to, and the resource budget
// the inner evaluation and solver drain. Both are optional; the zero
// value runs unobserved and unbudgeted.
type Opts struct {
	Obs    obs.Observer
	Budget *budget.B
}

// PanicPred is the reserved 0-ary violation predicate.
const PanicPred = "panic"

// Constraint is a fauré-log program whose panic rules signal
// violation. Name is informational.
type Constraint struct {
	Name    string
	Program *faurelog.Program
}

// NewConstraint wraps a parsed program as a constraint, checking that
// it defines panic.
func NewConstraint(name string, prog *faurelog.Program) (Constraint, error) {
	if !prog.IDB()[PanicPred] {
		return Constraint{}, fmt.Errorf("containment: constraint %s defines no %s rule", name, PanicPred)
	}
	return Constraint{Name: name, Program: prog}, nil
}

// MustConstraint is NewConstraint for statically-known programs.
//
// Invariant, not an error path: like faurelog.MustParse, the source is
// a compile-time literal (the built-in enterprise policies, tests), so
// failure means the literal itself is wrong. Constraints read from
// files go through NewConstraint + Parse and surface errors normally.
func MustConstraint(name, src string) Constraint {
	c, err := NewConstraint(name, faurelog.MustParse(src))
	if err != nil {
		panic(err)
	}
	return c
}

// BaseRelations returns the base (EDB) relations referenced by the
// constraint's rule bodies, with arities: every body predicate that is
// not defined by the program itself.
func (c Constraint) BaseRelations() map[string]int {
	idb := c.Program.IDB()
	out := map[string]int{}
	for _, r := range c.Program.Rules {
		for _, a := range r.Body {
			if !idb[a.Pred] {
				out[a.Pred] = len(a.Args)
			}
		}
	}
	return out
}

// Schema carries optional attribute typing for the base relations:
// per relation, per column, the domain of values that attribute can
// take. Frozen variables and universal-tuple variables placed at a
// typed column inherit its domain, which sharpens the implication
// check (the paper's §5 example needs the server attribute's
// {CS, GS, ȳ} c-domain to verify T2 under the update).
type Schema struct {
	ColDomains map[string][]solver.Domain
}

// ColDomain returns the domain of the given column, or the unbounded
// domain when untyped.
func (s *Schema) ColDomain(rel string, col int) solver.Domain {
	if s == nil || s.ColDomains == nil {
		return solver.Domain{}
	}
	cols := s.ColDomains[rel]
	if col < 0 || col >= len(cols) {
		return solver.Domain{}
	}
	return cols[col]
}

// Result of a containment check.
type Result struct {
	Contained bool
	// Witness names the rule of the contained program that failed the
	// check when Contained is false (informational).
	Witness string
}

// ErrOutsideFragment marks a target the subsumption test cannot
// process: Flatten could not unfold it into flat panic rules.
var ErrOutsideFragment = errors.New("outside the subsumption fragment")

// Subsumes reports whether the violation of target implies the
// violation of at least one of the known constraints, i.e. whether
// {known} ⊨ target (category (i)). Domains supplies the c-variable
// domains of the shared schema (finite domains sharpen the implication
// check). A target that is not flat is flattened first.
func Subsumes(target Constraint, known []Constraint, doms solver.Domains, schema *Schema) (Result, error) {
	return SubsumesWith(target, known, doms, schema, Opts{})
}

// SubsumesWith is Subsumes with full cross-cutting context. Its
// observer (nil disables) receives a "containment.subsumes" span with
// one "containment.mapping" child per target panic rule, and the
// category (i) check/outcome counters; the inner evaluation and solver
// report through it as well. A budget trip anywhere in the check — the
// mapping enumeration, the inner evaluation of the containers, the
// implication solver — aborts it with the *budget.Exceeded as the
// error: an incomplete panic derivation cannot soundly prove
// containment, so the caller must degrade to Unknown rather than trust
// a partial answer.
func SubsumesWith(target Constraint, known []Constraint, doms solver.Domains, schema *Schema, opt Opts) (Result, error) {
	return subsumption(target, nil, known, doms, schema, opt)
}

// subsumption is the one test behind both categories. u is nil for
// category (i) and the update for category (ii); it also picks the
// span and counter names. A nil u builds the same canonical databases
// as an empty update.
func subsumption(target Constraint, u *rewrite.Update, known []Constraint, doms solver.Domains, schema *Schema, opt Opts) (Result, error) {
	if !flat(target.Program) {
		prog, err := Flatten(target.Program)
		if err != nil {
			return Result{}, fmt.Errorf("containment: target %s is %w: %w", target.Name, ErrOutsideFragment, err)
		}
		target = Constraint{Name: target.Name, Program: prog}
	}
	spanName, counter := "containment.subsumes", "containment.category_i."
	var up rewrite.Update
	if u != nil {
		spanName, counter, up = "containment.subsumes_after_update", "containment.category_ii.", *u
	}
	o := opt.Obs
	obsOn := o != nil && o.Enabled()
	ob := obs.OrNop(o)
	var span obs.Span
	if obsOn {
		span = ob.StartSpan(spanName,
			obs.String("target", target.Name), obs.Int("known", int64(len(known))))
		defer span.End()
	}
	combined, err := combinePrograms(known)
	if err != nil {
		return Result{}, err
	}
	base := target.BaseRelations()
	for _, k := range known {
		for rel, n := range k.BaseRelations() {
			if prev, ok := base[rel]; ok && prev != n {
				return Result{}, fmt.Errorf("containment: relation %s used with arities %d and %d", rel, prev, n)
			}
			base[rel] = n
		}
	}
	for _, ch := range slices.Concat(up.Inserts, up.Deletes) {
		if n, ok := base[ch.Pred]; ok && len(ch.Values) != n {
			return Result{}, fmt.Errorf("containment: change %v has arity %d, relation %s has %d", ch, len(ch.Values), ch.Pred, n)
		}
	}
	for ri, r := range target.Program.Rules {
		if obsOn {
			ob.Count(counter+"checks", 1)
		}
		if err := opt.Budget.Check(fmt.Sprintf("containment mapping %d", ri)); err != nil {
			return Result{}, err
		}
		ok, err := ruleContained(r, up, combined, base, doms, schema, span, ri, opt)
		if err != nil {
			return Result{}, err
		}
		if !ok {
			if obsOn {
				ob.Count(counter+"not_contained", 1)
				span.SetAttrs(obs.Bool("contained", false))
			}
			return Result{Contained: false, Witness: r.String()}, nil
		}
	}
	if obsOn {
		ob.Count(counter+"contained", 1)
		span.SetAttrs(obs.Bool("contained", true))
	}
	return Result{Contained: true}, nil
}

// flat reports whether every rule of prog derives panic from base
// relations alone, so the test needs no Flatten.
func flat(prog *faurelog.Program) bool {
	for _, r := range prog.Rules {
		if r.Head.Pred != PanicPred {
			return false
		}
		for _, a := range r.Body {
			if a.Pred == PanicPred {
				return false
			}
		}
	}
	return true
}

// ruleContained freezes one panic rule of the contained candidate into
// a canonical database and checks that the container program derives
// panic on it under the rule's own conditions. parent and opt carry the
// observation context (a "containment.mapping" child span per rule).
func ruleContained(r faurelog.Rule, u rewrite.Update, container *faurelog.Program, base map[string]int, doms solver.Domains, schema *Schema, parent obs.Span, ruleIdx int, opt Opts) (bool, error) {
	o := opt.Obs
	obsOn := o != nil && o.Enabled()
	var span obs.Span
	if obsOn {
		span = parent.StartChild("containment.mapping", obs.Int("rule", int64(ruleIdx)))
		defer span.End()
	}
	db, assumption, err := canonicalDB(r, base, u, doms, schema)
	if err != nil {
		return false, err
	}
	res, err := faurelog.Eval(container, db, faurelog.Options{Observer: obs.Under(span, o), Budget: opt.Budget})
	if err != nil {
		return false, err
	}
	if res.Truncated != nil {
		// The containers' panic derivation is incomplete; treating it as
		// the full fixpoint could wrongly report "not contained" (or,
		// worse, vacuous containment against a partial panic set).
		// Surface the exhaustion for the caller to degrade to Unknown.
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
		span.SetAttrs(obs.Int("panic_tuples", int64(len(panics))))
	}
	// A rule whose own conditions are contradictory — or whose
	// post-update violation is unrealisable — never fires and is
	// vacuously contained.
	sat, err := s.Satisfiable(assumption)
	if err != nil {
		return false, err
	}
	if !sat {
		return true, nil
	}
	contained, err := s.Implies(assumption, cond.Or(panics...))
	if obsOn && err == nil {
		span.SetAttrs(obs.Bool("contained", contained))
	}
	return contained, err
}

// combinePrograms unions the containers' rules, renaming intermediate
// predicates apart so that same-named helpers in different constraints
// cannot capture one another. The shared panic head is kept.
func combinePrograms(cs []Constraint) (*faurelog.Program, error) {
	out := &faurelog.Program{}
	for i, c := range cs {
		rename := map[string]string{}
		for pred := range c.Program.IDB() {
			if pred == PanicPred {
				continue
			}
			rename[pred] = fmt.Sprintf("%s_c%d", pred, i)
		}
		for _, r := range c.Program.Rules {
			nr := faurelog.Rule{Head: renameAtom(r.Head, rename), HeadCond: r.HeadCond, Comps: r.Comps}
			for _, a := range r.Body {
				nr.Body = append(nr.Body, renameAtom(a, rename))
			}
			out.Rules = append(out.Rules, nr)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

func renameAtom(a faurelog.Atom, rename map[string]string) faurelog.Atom {
	if n, ok := rename[a.Pred]; ok {
		a.Pred = n
	}
	return a
}

// canonicalDB freezes rule r into the generic violating instance of
// the pre-update state over the given base schema (relation name →
// arity); the package comment describes the construction, and an
// empty update gives category (i)'s. It returns the database and the
// assumption formula. Fresh c-variables are numbered in freezing
// order, literal by literal, so the construction is deterministic.
func canonicalDB(r faurelog.Rule, base map[string]int, u rewrite.Update, doms solver.Domains, schema *Schema) (*ctable.Database, *cond.Formula, error) {
	db := ctable.NewDatabase()
	for name, d := range doms {
		db.DeclareVar(name, d)
	}
	counter := 0
	fresh := func(hint string, d solver.Domain) cond.Term {
		counter++
		name := "frz_" + hint + "_" + strconv.Itoa(counter)
		db.DeclareVar(name, d)
		return cond.CVar(name)
	}
	touched := u.Touched()
	varMap := map[string]cond.Term{}
	// freeze freezes a literal's arguments; a variable's domain comes
	// from the first column it is frozen at.
	freeze := func(a faurelog.Atom) []cond.Term {
		row := make([]cond.Term, len(a.Args))
		for i, t := range a.Args {
			if t.Kind != faurelog.TVar {
				row[i] = t.Symbol()
				continue
			}
			v, ok := varMap[t.Name]
			if !ok {
				v = fresh(t.Name, schema.ColDomain(a.Pred, i))
				varMap[t.Name] = v
			}
			row[i] = v
		}
		return row
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
	// Positive literals: one pre-state tuple each, in literal order,
	// with its presence condition (true, or s̄ = 1 where U touches the
	// relation).
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
		row := freeze(a)
		present := cond.True()
		if touched[a.Pred] {
			present = cond.Compare(fresh("s", solver.BoolDomain()), cond.Eq, cond.Int(1))
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

	// Negated literals: u is absent from the post state.
	exclusions := map[string][][]cond.Term{}
	for _, a := range r.Body {
		if !a.Neg {
			continue
		}
		ensure(a.Pred, len(a.Args))
		row := freeze(a)
		if touched[a.Pred] {
			assumption = cond.And(assumption, cond.Not(inserted(row, u, a.Pred)))
		}
		exclusions[a.Pred] = append(exclusions[a.Pred], row)
		for _, fp := range positives[a.Pred] {
			escape := differs(fp.row, row)
			if touched[a.Pred] {
				escape = cond.Or(escape, cond.Not(notDeleted(fp.row, u, a.Pred)))
			}
			assumption = cond.And(assumption, cond.Or(cond.Not(fp.present), escape))
		}
	}

	// One guarded universal tuple per base relation, restricted to
	// differ from every excluded pattern that U does not delete.
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
			row[i] = fresh("z", schema.ColDomain(rel, i))
		}
		parts := []*cond.Formula{cond.Compare(fresh("e", solver.BoolDomain()), cond.Eq, cond.Int(1))}
		for _, excl := range exclusions[rel] {
			esc := differs(row, excl)
			if touched[rel] {
				esc = cond.Or(esc, cond.Not(notDeleted(row, u, rel)))
			}
			parts = append(parts, esc)
		}
		if err := tbl.Insert(ctable.NewTuple(row, cond.And(parts...))); err != nil {
			return nil, nil, err
		}
	}

	for _, c := range r.Comps {
		f, err := instantiateComp(c, varMap)
		if err != nil {
			return nil, nil, err
		}
		assumption = cond.And(assumption, f)
	}
	if r.HeadCond != nil {
		f, err := InstantiateCondExpr(r.HeadCond, varMap)
		if err != nil {
			return nil, nil, err
		}
		assumption = cond.And(assumption, f)
	}
	return db, assumption, nil
}

// instantiateComp mirrors faurelog's comparison instantiation for
// frozen bindings.
func instantiateComp(c faurelog.Comparison, bind map[string]cond.Term) (*cond.Formula, error) {
	sum := make([]cond.Term, len(c.Sum))
	for i, t := range c.Sum {
		v, err := resolve(t, bind)
		if err != nil {
			return nil, err
		}
		sum[i] = v
	}
	rhs, err := resolve(c.RHS, bind)
	if err != nil {
		return nil, err
	}
	return cond.AtomF(cond.NewSumAtom(sum, c.Op, rhs)), nil
}

// InstantiateCondExpr grounds a head-condition expression under frozen
// bindings.
func InstantiateCondExpr(ce faurelog.CondExpr, bind map[string]cond.Term) (*cond.Formula, error) {
	switch e := ce.(type) {
	case faurelog.CondComp:
		return instantiateComp(e.Comp, bind)
	case faurelog.CondAnd:
		out := cond.True()
		for _, s := range e.Sub {
			f, err := InstantiateCondExpr(s, bind)
			if err != nil {
				return nil, err
			}
			out = cond.And(out, f)
		}
		return out, nil
	case faurelog.CondOr:
		out := cond.False()
		for _, s := range e.Sub {
			f, err := InstantiateCondExpr(s, bind)
			if err != nil {
				return nil, err
			}
			out = cond.Or(out, f)
		}
		return out, nil
	case faurelog.CondNot:
		f, err := InstantiateCondExpr(e.Sub, bind)
		if err != nil {
			return nil, err
		}
		return cond.Not(f), nil
	default:
		return nil, fmt.Errorf("containment: unknown condition expression %T", ce)
	}
}

func resolve(t faurelog.Term, bind map[string]cond.Term) (cond.Term, error) {
	if t.Kind == faurelog.TVar {
		v, ok := bind[t.Name]
		if !ok {
			return cond.Term{}, fmt.Errorf("containment: unbound variable %s", t.Name)
		}
		return v, nil
	}
	return t.Symbol(), nil
}
