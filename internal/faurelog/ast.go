// Package faurelog implements fauré-log, the paper's datalog extension
// for conditional tables: rules are evaluated over c-tables by the
// c-valuation v^C, which maps program variables and constants onto the
// c-domain (constants ∪ c-variables) while accumulating the equality
// conditions that pattern matching against unknowns requires.
//
// The engine supports recursion (semi-naive fixpoint), stratified
// negation with "not derivable from the c-table" semantics (a negated
// literal contributes the negation of the disjunction of all matching
// tuples' conditions), explicit comparison literals (x̄ ≠ Mkt,
// x̄+ȳ+z̄ = 1) and nested queries (evaluating one program over another's
// output). Evaluation follows the paper's three-step PostgreSQL
// pipeline: generate the data parts, attach conditions, then invoke
// the solver to remove contradictory tuples — with the "sql" and
// "solver" phases timed separately, as in Table 4.
package faurelog

import (
	"fmt"
	"strings"

	"faure/internal/cond"
)

// TermKind discriminates rule-term variants.
type TermKind uint8

const (
	// TVar is a program variable (x, y, ...), valuated over the
	// c-domain by v^C rule (1).
	TVar TermKind = iota
	// TConst is a constant; under v^C rule (2) it matches itself or
	// any c-variable whose condition admits the equality.
	TConst
	// TCVar references a c-variable by name; matching it against
	// another c-domain symbol emits an equality condition.
	TCVar
)

// Term is an argument of a fauré-log atom.
type Term struct {
	Kind  TermKind
	Name  string    // variable or c-variable name
	Const cond.Term // constant value for TConst
}

// V returns a program-variable term.
func V(name string) Term { return Term{Kind: TVar, Name: name} }

// C returns a constant term.
func C(v cond.Term) Term { return Term{Kind: TConst, Const: v} }

// CV returns a c-variable term.
func CV(name string) Term { return Term{Kind: TCVar, Name: name} }

// String renders the term in the concrete syntax.
func (t Term) String() string {
	switch t.Kind {
	case TVar:
		return t.Name
	case TCVar:
		return "$" + t.Name
	default:
		return t.Const.String()
	}
}

// Symbol converts a non-variable term to its c-domain symbol.
func (t Term) Symbol() cond.Term {
	if t.Kind == TCVar {
		return cond.CVar(t.Name)
	}
	return t.Const
}

// Atom is a (possibly negated) relational literal.
type Atom struct {
	Pred string
	Args []Term
	Neg  bool
}

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	s := a.Pred + "(" + strings.Join(parts, ", ") + ")"
	if a.Neg {
		s = "not " + s
	}
	return s
}

// Vars returns the program variables of the atom in occurrence order.
func (a Atom) Vars() []string {
	var out []string
	for _, t := range a.Args {
		if t.Kind == TVar {
			out = append(out, t.Name)
		}
	}
	return out
}

// Comparison is an explicit comparison literal: Sum op RHS, where the
// summands and RHS are variables, c-variables or constants. With one
// summand it is an ordinary comparison (x != 1.2.3.4); with several it
// is a linear failure-pattern condition ($x+$y+$z = 1).
type Comparison struct {
	Sum []Term
	Op  cond.Op
	RHS Term
}

// String renders the comparison.
func (c Comparison) String() string {
	parts := make([]string, len(c.Sum))
	for i, t := range c.Sum {
		parts[i] = t.String()
	}
	return strings.Join(parts, "+") + " " + c.Op.String() + " " + c.RHS.String()
}

// Vars returns the program variables of the comparison.
func (c Comparison) Vars() []string {
	var out []string
	for _, t := range append(append([]Term{}, c.Sum...), c.RHS) {
		if t.Kind == TVar {
			out = append(out, t.Name)
		}
	}
	return out
}

// CondExpr is the optional extra head condition of a rule (the […]
// annotation), a boolean expression over comparisons. It may reference
// program variables, which are substituted at head instantiation. The
// engine compiles it once per evaluation (see compileCond).
type CondExpr interface {
	String() string
	vars(dst []string) []string
}

// CondComp wraps a comparison as a condition expression.
type CondComp struct{ Comp Comparison }

// CondAnd is a conjunction of condition expressions.
type CondAnd struct{ Sub []CondExpr }

// CondOr is a disjunction of condition expressions.
type CondOr struct{ Sub []CondExpr }

// CondNot negates a condition expression.
type CondNot struct{ Sub CondExpr }

func (e CondComp) String() string { return e.Comp.String() }
func (e CondAnd) String() string  { return joinCond(e.Sub, " && ") }
func (e CondOr) String() string   { return joinCond(e.Sub, " || ") }
func (e CondNot) String() string  { return "!(" + e.Sub.String() + ")" }

func joinCond(sub []CondExpr, sep string) string {
	parts := make([]string, len(sub))
	for i, s := range sub {
		switch s.(type) {
		case CondAnd, CondOr:
			parts[i] = "(" + s.String() + ")"
		default:
			parts[i] = s.String()
		}
	}
	return strings.Join(parts, sep)
}

func (e CondComp) vars(dst []string) []string { return append(dst, e.Comp.Vars()...) }
func (e CondAnd) vars(dst []string) []string {
	for _, s := range e.Sub {
		dst = s.vars(dst)
	}
	return dst
}
func (e CondOr) vars(dst []string) []string {
	for _, s := range e.Sub {
		dst = s.vars(dst)
	}
	return dst
}
func (e CondNot) vars(dst []string) []string { return e.Sub.vars(dst) }

// Rule is H(u)[extra] :- B1(u1), ..., Bn(un), C1, ..., Cm. Body-tuple
// conditions are implicitly conjoined into the head (that is all
// equation (3) of the paper does with its φ_i); HeadCond adds explicit
// extra condition atoms.
type Rule struct {
	Head     Atom
	HeadCond CondExpr // may be nil
	Body     []Atom
	Comps    []Comparison
}

// String renders the rule.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Head.String())
	if r.HeadCond != nil {
		b.WriteString(" [")
		b.WriteString(r.HeadCond.String())
		b.WriteString("]")
	}
	if len(r.Body) == 0 && len(r.Comps) == 0 {
		b.WriteString(".")
		return b.String()
	}
	b.WriteString(" :- ")
	var parts []string
	for _, a := range r.Body {
		parts = append(parts, a.String())
	}
	for _, c := range r.Comps {
		parts = append(parts, c.String())
	}
	b.WriteString(strings.Join(parts, ", "))
	b.WriteString(".")
	return b.String()
}

// Validate checks safety: every head variable, negated-literal
// variable and comparison variable must be bound by a positive body
// literal.
func (r Rule) Validate() error {
	positive := map[string]bool{}
	for _, a := range r.Body {
		if !a.Neg {
			for _, v := range a.Vars() {
				positive[v] = true
			}
		}
	}
	requireBound := func(vs []string, what string) error {
		for _, v := range vs {
			if !positive[v] {
				return fmt.Errorf("faurelog: unsafe rule %v: %s variable %s not bound by a positive literal", r, what, v)
			}
		}
		return nil
	}
	if err := requireBound(r.Head.Vars(), "head"); err != nil {
		return err
	}
	for _, a := range r.Body {
		if a.Neg {
			if err := requireBound(a.Vars(), "negated-literal"); err != nil {
				return err
			}
		}
	}
	for _, c := range r.Comps {
		if err := requireBound(c.Vars(), "comparison"); err != nil {
			return err
		}
	}
	if r.HeadCond != nil {
		if err := requireBound(r.HeadCond.vars(nil), "head-condition"); err != nil {
			return err
		}
	}
	return nil
}

// Program is a finite collection of fauré-log rules.
type Program struct {
	Rules []Rule
}

// String renders the program one rule per line.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// IDB returns the predicates defined by rule heads.
func (p *Program) IDB() map[string]bool {
	idb := map[string]bool{}
	for _, r := range p.Rules {
		idb[r.Head.Pred] = true
	}
	return idb
}

// Validate checks rule safety and consistent arities.
func (p *Program) Validate() error {
	arity := map[string]int{}
	check := func(a Atom) error {
		if n, ok := arity[a.Pred]; ok {
			if n != len(a.Args) {
				return fmt.Errorf("faurelog: predicate %s used with arities %d and %d", a.Pred, n, len(a.Args))
			}
		} else {
			arity[a.Pred] = len(a.Args)
		}
		return nil
	}
	for _, r := range p.Rules {
		if err := r.Validate(); err != nil {
			return err
		}
		if err := check(r.Head); err != nil {
			return err
		}
		for _, a := range r.Body {
			if err := check(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// MustParse parses a program and panics on error.
//
// Invariant, not an error path: this is the regexp.MustCompile idiom —
// callers pass statically-known program text (examples, tests, the
// built-in §5 scenario), so a failure is a bug in that text, caught at
// first execution. Runtime input must go through Parse; the façade
// entry points additionally recover any such panic into a
// guard.PanicError rather than crashing the caller.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseError wraps a positioned parse error with the offending source.
type ParseError struct {
	Err error
	Src string
}

func (e *ParseError) Error() string { return e.Err.Error() }

func (e *ParseError) Unwrap() error { return e.Err }
