package containment

import (
	"fmt"
	"strconv"

	"faure/internal/cond"
	"faure/internal/faurelog"
)

// Flatten rewrites a constraint program so that every panic rule
// references only base relations, by repeatedly inlining positive
// occurrences of non-recursive intermediate predicates (a rule with k
// matching definitions fans out into k rules). The result is the union
// of conjunctive violation patterns the containment test needs, so
// constraints like C_lb — whose panic is defined through a helper
// predicate — can be *targets* of Subsumes, not just containers; the
// test calls it on every target that is not flat.
//
// Limits, returned as errors: recursive intermediates cannot be
// unfolded into a finite union, and negated intermediate literals
// cannot be inlined at all (¬(A ∨ B) is not a conjunctive pattern).
func Flatten(prog *faurelog.Program) (*faurelog.Program, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	idb := prog.IDB()
	// Recursive predicates (any predicate in a multi-member or
	// self-looping SCC) cannot be unfolded.
	strata, err := faurelog.Stratify(prog)
	if err != nil {
		return nil, err
	}
	recursive := map[string]bool{}
	for _, group := range strata {
		if len(group) > 1 {
			for _, p := range group {
				recursive[p] = true
			}
			continue
		}
		p := group[0]
		for _, r := range prog.Rules {
			if r.Head.Pred != p {
				continue
			}
			for _, a := range r.Body {
				if a.Pred == p {
					recursive[p] = true
				}
			}
		}
	}
	defs := map[string][]faurelog.Rule{}
	for _, r := range prog.Rules {
		defs[r.Head.Pred] = append(defs[r.Head.Pred], r)
	}

	var out faurelog.Program
	fresh := 0
	var expand func(r faurelog.Rule, depth int) ([]faurelog.Rule, error)
	expand = func(r faurelog.Rule, depth int) ([]faurelog.Rule, error) {
		if depth > 64 {
			return nil, fmt.Errorf("containment: unfolding depth exceeded in %v", r)
		}
		// Find the first intermediate literal.
		for i, a := range r.Body {
			if !idb[a.Pred] {
				continue
			}
			if a.Neg {
				return nil, fmt.Errorf("containment: cannot flatten negated intermediate literal %v", a)
			}
			if recursive[a.Pred] {
				return nil, fmt.Errorf("containment: cannot flatten recursive predicate %s", a.Pred)
			}
			var results []faurelog.Rule
			for _, def := range defs[a.Pred] {
				inlined, err := inline(r, i, def, &fresh)
				if err != nil {
					return nil, err
				}
				sub, err := expand(inlined, depth+1)
				if err != nil {
					return nil, err
				}
				results = append(results, sub...)
			}
			return results, nil
		}
		return []faurelog.Rule{r}, nil
	}
	for _, r := range prog.Rules {
		if r.Head.Pred != PanicPred {
			continue
		}
		flat, err := expand(r, 0)
		if err != nil {
			return nil, err
		}
		out.Rules = append(out.Rules, flat...)
	}
	if len(out.Rules) == 0 {
		return nil, fmt.Errorf("containment: program defines no %s rule", PanicPred)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return &out, nil
}

// inline replaces the i-th body literal of r (which matches def's
// head) with def's body, renaming def's variables apart and unifying
// def's head arguments with the literal's arguments. Unification here
// is purely syntactic: a head variable binds to the caller's term; a
// head constant/c-variable meeting a caller constant/c-variable turns
// into an equality comparison; a head constant meeting a caller
// variable binds the caller variable via an equality comparison (the
// caller variable stays, constrained).
func inline(r faurelog.Rule, i int, def faurelog.Rule, fresh *int) (faurelog.Rule, error) {
	call := r.Body[i]
	// Rename def's variables apart.
	rename := map[string]string{}
	var mapTerm func(t faurelog.Term) faurelog.Term
	mapTerm = func(t faurelog.Term) faurelog.Term {
		if t.Kind != faurelog.TVar {
			return t
		}
		n, ok := rename[t.Name]
		if !ok {
			*fresh++
			n = "u" + strconv.Itoa(*fresh) + "_" + t.Name
			rename[t.Name] = n
		}
		return faurelog.V(n)
	}
	renAtom := func(a faurelog.Atom) faurelog.Atom {
		na := faurelog.Atom{Pred: a.Pred, Neg: a.Neg}
		for _, t := range a.Args {
			na.Args = append(na.Args, mapTerm(t))
		}
		return na
	}
	renComp := func(c faurelog.Comparison) faurelog.Comparison {
		nc := faurelog.Comparison{Op: c.Op, RHS: mapTerm(c.RHS)}
		for _, t := range c.Sum {
			nc.Sum = append(nc.Sum, mapTerm(t))
		}
		return nc
	}

	if def.HeadCond != nil {
		return faurelog.Rule{}, fmt.Errorf("containment: cannot flatten intermediate %s with a head condition", def.Head.Pred)
	}

	// Unify head args with call args. Two substitutions emerge: one for
	// def's (renamed) head variables, one for *caller* variables that
	// meet a head constant or c-variable (the caller variable is
	// replaced throughout the rule — constraining it with a dangling
	// comparison would make the rule unsafe). Constant-vs-constant or
	// c-variable pairs become soft equality comparisons.
	defSubst := map[string]faurelog.Term{}
	callerSubst := map[string]faurelog.Term{}
	var eqs []faurelog.Comparison
	for k := range def.Head.Args {
		h := mapTerm(def.Head.Args[k])
		c := call.Args[k]
		// Resolve prior caller substitutions on c.
		if c.Kind == faurelog.TVar {
			if v, ok := callerSubst[c.Name]; ok {
				c = v
			}
		}
		switch {
		case h.Kind == faurelog.TVar:
			if prev, bound := defSubst[h.Name]; bound {
				eqs = append(eqs, faurelog.Comparison{Sum: []faurelog.Term{prev}, Op: cond.Eq, RHS: c})
			} else {
				defSubst[h.Name] = c
			}
		case c.Kind == faurelog.TVar:
			callerSubst[c.Name] = h
		default:
			eqs = append(eqs, faurelog.Comparison{Sum: []faurelog.Term{h}, Op: cond.Eq, RHS: c})
		}
	}
	applyDef := func(t faurelog.Term) faurelog.Term {
		if t.Kind == faurelog.TVar {
			if v, ok := defSubst[t.Name]; ok {
				t = v
			}
		}
		return t
	}
	applyCaller := func(t faurelog.Term) faurelog.Term {
		if t.Kind == faurelog.TVar {
			if v, ok := callerSubst[t.Name]; ok {
				return v
			}
		}
		return t
	}
	substAtomCaller := func(a faurelog.Atom) faurelog.Atom {
		na := faurelog.Atom{Pred: a.Pred, Neg: a.Neg}
		for _, t := range a.Args {
			na.Args = append(na.Args, applyCaller(t))
		}
		return na
	}
	substCompCaller := func(c faurelog.Comparison) faurelog.Comparison {
		nc := faurelog.Comparison{Op: c.Op, RHS: applyCaller(c.RHS)}
		for _, t := range c.Sum {
			nc.Sum = append(nc.Sum, applyCaller(t))
		}
		return nc
	}

	out := faurelog.Rule{Head: substAtomCaller(r.Head), HeadCond: substHeadCond(r.HeadCond, applyCaller)}
	for _, a := range r.Body[:i] {
		out.Body = append(out.Body, substAtomCaller(a))
	}
	for _, a := range def.Body {
		na := renAtom(a)
		for k := range na.Args {
			na.Args[k] = applyCaller(applyDef(na.Args[k]))
		}
		out.Body = append(out.Body, na)
	}
	for _, a := range r.Body[i+1:] {
		out.Body = append(out.Body, substAtomCaller(a))
	}
	for _, c := range r.Comps {
		out.Comps = append(out.Comps, substCompCaller(c))
	}
	for _, c := range def.Comps {
		nc := renComp(c)
		for k := range nc.Sum {
			nc.Sum[k] = applyCaller(applyDef(nc.Sum[k]))
		}
		nc.RHS = applyCaller(applyDef(nc.RHS))
		out.Comps = append(out.Comps, nc)
	}
	for _, e := range eqs {
		for k := range e.Sum {
			e.Sum[k] = applyCaller(applyDef(e.Sum[k]))
		}
		e.RHS = applyCaller(applyDef(e.RHS))
		out.Comps = append(out.Comps, e)
	}
	return out, nil
}

// substHeadCond rewrites variables inside a head-condition expression.
func substHeadCond(ce faurelog.CondExpr, apply func(faurelog.Term) faurelog.Term) faurelog.CondExpr {
	switch e := ce.(type) {
	case nil:
		return nil
	case faurelog.CondComp:
		nc := faurelog.Comparison{Op: e.Comp.Op, RHS: apply(e.Comp.RHS)}
		for _, t := range e.Comp.Sum {
			nc.Sum = append(nc.Sum, apply(t))
		}
		return faurelog.CondComp{Comp: nc}
	case faurelog.CondAnd:
		sub := make([]faurelog.CondExpr, len(e.Sub))
		for i, s := range e.Sub {
			sub[i] = substHeadCond(s, apply)
		}
		return faurelog.CondAnd{Sub: sub}
	case faurelog.CondOr:
		sub := make([]faurelog.CondExpr, len(e.Sub))
		for i, s := range e.Sub {
			sub[i] = substHeadCond(s, apply)
		}
		return faurelog.CondOr{Sub: sub}
	case faurelog.CondNot:
		return faurelog.CondNot{Sub: substHeadCond(e.Sub, apply)}
	default:
		return ce
	}
}
