// Package containment implements the paper's §5 reduction of datalog
// program containment — the engine behind constraint subsumption — to
// query evaluation in fauré-log.
//
// A constraint is a fauré-log program deriving the 0-ary predicate
// panic ("the constraint is violated"). Constraint Q is subsumed by a
// set of constraints {P1, ..., Pk} when every violation of Q is also a
// violation of some Pi; then, knowing the Pi hold, Q must hold too.
//
// The reduction, following the paper's outline: rewrite each panic
// rule of Q into variable-free form (program variables become fresh
// c-variables, making implicit pattern matching explicit), freeze its
// positive body literals into a canonical c-table database, and
// evaluate the candidate containers on it. The canonical database is
// the *generic violating instance*:
//
//   - each positive literal's frozen tuple is present with condition
//     true (the violation requires it);
//   - every other base relation's content is unknown, modelled by a
//     universal tuple of fresh c-variables guarded by a fresh {0,1}
//     selector ē — the relation *may* contain an arbitrary tuple
//     (ē = 1) or not (ē = 0);
//   - a negated literal ¬B(u) of Q restricts B's universal tuple with
//     the complement condition z̄ ≠ u (B may contain anything but u),
//     exactly the construction sketched in the paper for q9.
//
// Q is contained when, under Q's own comparison conditions, the
// containers derive panic in every possible world of the canonical
// database — a single solver implication check.
//
// The test is sound (a "contained" answer is always correct — verified
// by the property tests against explicit enumeration) and complete on
// the paper's examples; like the paper's verifiers it may answer
// "not contained" conservatively on programs outside the fragment it
// handles (the caller reports that as "unknown").
package containment

import (
	"fmt"
	"sort"
	"strconv"

	"faure/internal/budget"
	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/faurelog"
	"faure/internal/obs"
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

// Subsumes reports whether the violation of target implies the
// violation of at least one of the known constraints, i.e. whether
// {known} ⊨ target. Domains supplies the c-variable domains of the
// shared schema (finite domains sharpen the implication check).
//
// The target's panic rules must be flat: their bodies may reference
// only base (EDB) relations, as the paper's T1 and T2 do. Containers
// may use intermediate predicates freely (C_lb and C_s do).
func Subsumes(target Constraint, known []Constraint, doms solver.Domains, schema *Schema) (Result, error) {
	return SubsumesWith(target, known, doms, schema, Opts{})
}

// SubsumesObserved is Subsumes with observability: o (nil disables)
// receives a "containment.subsumes" span with one "containment.mapping"
// child per target panic rule, and the category (i) check/outcome
// counters. The inner evaluation and solver report through o as well.
func SubsumesObserved(target Constraint, known []Constraint, doms solver.Domains, schema *Schema, o obs.Observer) (Result, error) {
	return SubsumesWith(target, known, doms, schema, Opts{Obs: o})
}

// SubsumesWith is Subsumes with full cross-cutting context (observer
// and budget). A budget trip anywhere in the check — the mapping
// enumeration, the inner evaluation of the containers, the implication
// solver — aborts it with the *budget.Exceeded as the error: an
// incomplete panic derivation cannot soundly prove containment, so the
// caller must degrade to Unknown rather than trust a partial answer.
func SubsumesWith(target Constraint, known []Constraint, doms solver.Domains, schema *Schema, opt Opts) (Result, error) {
	o := opt.Obs
	obsOn := o != nil && o.Enabled()
	ob := obs.OrNop(o)
	var span obs.Span
	if obsOn {
		span = ob.StartSpan("containment.subsumes",
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
	idb := target.Program.IDB()
	for ri, r := range target.Program.Rules {
		if r.Head.Pred != PanicPred {
			return Result{}, fmt.Errorf("containment: target %s has non-flat rule %v (unfold intermediate predicates first)", target.Name, r)
		}
		for _, a := range r.Body {
			if idb[a.Pred] {
				return Result{}, fmt.Errorf("containment: target %s rule %v references intermediate predicate %s", target.Name, r, a.Pred)
			}
		}
		if obsOn {
			ob.Count("containment.category_i.checks", 1)
		}
		if err := opt.Budget.Check(fmt.Sprintf("containment mapping %d", ri)); err != nil {
			return Result{}, err
		}
		ok, err := ruleContained(r, combined, base, doms, schema, span, ri, opt)
		if err != nil {
			return Result{}, err
		}
		if !ok {
			if obsOn {
				ob.Count("containment.category_i.not_contained", 1)
				span.SetAttrs(obs.Bool("contained", false))
			}
			return Result{Contained: false, Witness: r.String()}, nil
		}
	}
	if obsOn {
		ob.Count("containment.category_i.contained", 1)
		span.SetAttrs(obs.Bool("contained", true))
	}
	return Result{Contained: true}, nil
}

// ruleContained freezes one panic rule of the contained candidate into
// a canonical database and checks that the container program derives
// panic on it under the rule's own conditions. parent/o carry the
// observation context (a "containment.mapping" child span per rule).
func ruleContained(r faurelog.Rule, container *faurelog.Program, base map[string]int, doms solver.Domains, schema *Schema, parent obs.Span, ruleIdx int, opt Opts) (bool, error) {
	o := opt.Obs
	obsOn := o != nil && o.Enabled()
	var span obs.Span
	if obsOn {
		span = parent.StartChild("containment.mapping", obs.Int("rule", int64(ruleIdx)))
		defer span.End()
	}
	fr := NewFreezer(doms, schema)
	db, assumption, err := fr.CanonicalDB(r, base)
	if err != nil {
		return false, err
	}
	res, err := faurelog.Eval(container, db, faurelog.Options{Observer: o, Budget: opt.Budget})
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
	// A rule whose own conditions are contradictory never fires and is
	// vacuously contained.
	sat, err := s.Satisfiable(assumption)
	if err != nil {
		return false, err
	}
	if !sat {
		return true, nil
	}
	// The assumption was just decided sat above, so passing it as the
	// incremental base lets the solver replay its witness over the
	// entailment check (assumption ∧ ¬panics entails it).
	contained, err := s.ImpliesFrom(assumption, cond.Or(panics...), assumption)
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

// Freezer builds canonical databases from rule bodies, allocating
// fresh c-variables for frozen program variables, for universal
// tuples, and for their presence selectors.
type Freezer struct {
	base    solver.Domains
	schema  *Schema
	counter int
}

// NewFreezer returns a freezer whose canonical databases inherit the
// given base domains and (optionally) attribute typing.
func NewFreezer(doms solver.Domains, schema *Schema) *Freezer {
	return &Freezer{base: doms, schema: schema}
}

// Fresh allocates a fresh c-variable name with the given hint.
func (fr *Freezer) Fresh(hint string) string {
	fr.counter++
	return "frz_" + hint + "_" + strconv.Itoa(fr.counter)
}

// CanonicalDB freezes the rule into the generic violating instance
// over the given base schema (relation name → arity); see the package
// comment for the construction. It returns the database and the
// assumption formula A (the rule's own comparisons and head condition
// under the frozen variables).
func (fr *Freezer) CanonicalDB(r faurelog.Rule, base map[string]int) (*ctable.Database, *cond.Formula, error) {
	db := ctable.NewDatabase()
	for name, d := range fr.base {
		db.DeclareVar(name, d)
	}
	varMap := map[string]cond.Term{}
	// frz freezes one argument term at a typed column position; a
	// variable's domain comes from the first column it is frozen at.
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

	// Frozen tuples for the positive literals (freezing in literal
	// order fixes variable naming deterministically).
	positives := map[string][][]cond.Term{}
	for _, a := range r.Body {
		if a.Neg {
			continue
		}
		tbl := ensure(a.Pred, len(a.Args))
		row := make([]cond.Term, len(a.Args))
		for i, t := range a.Args {
			row[i] = frz(t, a.Pred, i)
		}
		positives[a.Pred] = append(positives[a.Pred], row)
		if err := tbl.Insert(ctable.NewTuple(row, cond.True())); err != nil {
			return nil, nil, err
		}
	}

	// Collect, per relation, the exclusion patterns from the rule's
	// negated literals.
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
		exclusions[a.Pred] = append(exclusions[a.Pred], row)
	}

	// One guarded universal tuple per base relation: the relation may
	// contain an arbitrary tuple (selector ē = 1), restricted to
	// differ from every excluded pattern.
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
			var diff []*cond.Formula
			for i, u := range excl {
				diff = append(diff, cond.Compare(row[i], cond.Ne, u))
			}
			parts = append(parts, cond.Or(diff...))
		}
		if err := tbl.Insert(ctable.NewTuple(row, cond.And(parts...))); err != nil {
			return nil, nil, err
		}
	}

	// The assumption: the rule's own comparisons and head condition
	// under the frozen variables, plus the implicit disequalities
	// between each positive frozen tuple and each same-relation
	// exclusion (a state cannot both contain and not contain the same
	// tuple).
	bind := map[string]cond.Term{}
	for v, t := range varMap {
		bind[v] = t
	}
	assumption := cond.True()
	for rel, excls := range exclusions {
		for _, ex := range excls {
			for _, fp := range positives[rel] {
				var diff []*cond.Formula
				for i := range ex {
					diff = append(diff, cond.Compare(fp[i], cond.Ne, ex[i]))
				}
				assumption = cond.And(assumption, cond.Or(diff...))
			}
		}
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
