package faurelog

// Compiled rules.
//
// Everything about a rule application that depends only on the rule —
// which literal is fed by the delta, the positives-before-negations
// literal order, where each program variable is first bound, which
// columns a literal can probe, how the head and the comparisons are
// built — is worked out once per evaluation and delta position, never
// per tuple. Program variables become dense slots of a []cond.Term;
// constants and c-variables become their cond.Term symbols. Because a
// literal order fixes, for every variable occurrence, whether it binds
// its slot (the first occurrence) or compares against it (every later
// one), matching needs no undo log: backtracking simply leaves a stale
// slot that the binding occurrence overwrites before any later
// occurrence reads it. Comparisons (and head conditions) that mention
// no program variable are built once per rule, on the first emission
// that needs them, and shared by every later emission.

import (
	"fmt"

	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/relstore"
)

// operand is a compiled term of a comparison or the head: a program
// variable's slot, or a fixed symbol.
type operand struct {
	slot int       // program-variable slot; -1 for a symbol
	sym  cond.Term // the constant or c-variable when slot < 0
}

func (o operand) value(slots []cond.Term) cond.Term {
	if o.slot >= 0 {
		return slots[o.slot]
	}
	return o.sym
}

// compileOperand resolves a rule term against the rule's slot map. A
// program variable with no slot is unbound.
func compileOperand(t Term, slotOf map[string]int) (operand, error) {
	if t.Kind != TVar {
		return operand{slot: -1, sym: t.Symbol()}, nil
	}
	s, ok := slotOf[t.Name]
	if !ok {
		return operand{}, fmt.Errorf("faurelog: unbound variable %s in comparison", t.Name)
	}
	return operand{slot: s}, nil
}

// compPlan is a compiled comparison literal.
type compPlan struct {
	sum    []operand
	op     cond.Op
	rhs    operand
	ground bool // no program variable: the formula is the same for every match
}

func compileComparison(c Comparison, slotOf map[string]int) (compPlan, error) {
	cp := compPlan{op: c.Op, sum: make([]operand, len(c.Sum)), ground: true}
	for i, t := range c.Sum {
		o, err := compileOperand(t, slotOf)
		if err != nil {
			return compPlan{}, err
		}
		cp.sum[i] = o
		cp.ground = cp.ground && o.slot < 0
	}
	o, err := compileOperand(c.RHS, slotOf)
	if err != nil {
		return compPlan{}, err
	}
	cp.rhs = o
	cp.ground = cp.ground && o.slot < 0
	return cp, nil
}

// formula builds the comparison's condition atom under the bindings.
func (c *compPlan) formula(slots []cond.Term) *cond.Formula {
	sum := make([]cond.Term, len(c.sum))
	for i, o := range c.sum {
		sum[i] = o.value(slots)
	}
	return cond.AtomF(cond.NewSumAtom(sum, c.op, c.rhs.value(slots)))
}

// condPlan is a compiled head-condition expression: a comparison, or
// the conjunction, disjunction or negation of its sub-expressions.
type condPlan struct {
	kind   condKind
	comp   compPlan
	sub    []condPlan
	ground bool
}

type condKind uint8

const (
	condComp condKind = iota
	condAnd
	condOr
	condNot
)

func compileCond(ce CondExpr, slotOf map[string]int) (condPlan, error) {
	var cp condPlan
	var subs []CondExpr
	switch e := ce.(type) {
	case CondComp:
		comp, err := compileComparison(e.Comp, slotOf)
		if err != nil {
			return condPlan{}, err
		}
		return condPlan{kind: condComp, comp: comp, ground: comp.ground}, nil
	case CondAnd:
		cp.kind, subs = condAnd, e.Sub
	case CondOr:
		cp.kind, subs = condOr, e.Sub
	case CondNot:
		cp.kind, subs = condNot, []CondExpr{e.Sub}
	default:
		return condPlan{}, fmt.Errorf("faurelog: unknown condition expression %T", ce)
	}
	cp.ground = true
	cp.sub = make([]condPlan, len(subs))
	for i, s := range subs {
		sp, err := compileCond(s, slotOf)
		if err != nil {
			return condPlan{}, err
		}
		cp.sub[i] = sp
		cp.ground = cp.ground && sp.ground
	}
	return cp, nil
}

// formula builds the expression's condition under the bindings.
func (c *condPlan) formula(slots []cond.Term) *cond.Formula {
	switch c.kind {
	case condComp:
		return c.comp.formula(slots)
	case condNot:
		return cond.Not(c.sub[0].formula(slots))
	}
	fs := make([]*cond.Formula, len(c.sub))
	for i := range c.sub {
		fs[i] = c.sub[i].formula(slots)
	}
	if c.kind == condAnd {
		return cond.And(fs...)
	}
	return cond.Or(fs...)
}

// groundCondition builds a condition expression that mentions no
// program variable (a fact's annotation, a standalone condition).
func groundCondition(ce CondExpr) (*cond.Formula, error) {
	cp, err := compileCond(ce, nil)
	if err != nil {
		return nil, err
	}
	return cp.formula(nil), nil
}

// argPlan is one compiled argument of a body literal.
type argPlan struct {
	kind TermKind
	slot int       // TVar: the variable's slot
	sym  cond.Term // TConst: the constant; TCVar: the c-variable
	// bind marks, under the literal order the roles were assigned for
	// (the canonical one in a compiled plan), the variable's first
	// occurrence: it binds the slot instead of comparing with it.
	bind bool
}

// litPlan is one compiled body literal.
type litPlan struct {
	pred string
	neg  bool
	pos  int // index in the written body
	args []argPlan
	// probe lists, in column order, the columns bound when the literal
	// is reached in the order its roles were assigned for: constants,
	// and variables bound by an earlier literal. Written order probes
	// the first whose value is a constant; a reordered plan intersects
	// all such columns.
	probe []int
}

// assignRoles fixes the literal's roles for an order that reaches it
// with the slots marked in bound already bound: its probe columns, and
// which variable occurrences bind their slot. It marks the slots the
// literal binds in bound.
func (l *litPlan) assignRoles(bound []bool) {
	l.probe = l.probe[:0]
	for c := range l.args {
		if a := &l.args[c]; a.kind == TConst || a.kind == TVar && bound[a.slot] {
			l.probe = append(l.probe, c)
		}
	}
	// Binders are marked after the probe columns are collected: a
	// variable bound earlier in the same literal is not yet bound when
	// the literal's candidates are looked up.
	for c := range l.args {
		a := &l.args[c]
		a.bind = a.kind == TVar && !bound[a.slot]
		if a.bind {
			bound[a.slot] = true
		}
	}
}

// probeKey returns the column and constant written order probes for
// this literal under the bindings, or ok=false for a full scan.
func (l *litPlan) probeKey(slots []cond.Term) (col int, key cond.Term, ok bool) {
	for _, c := range l.probe {
		a := &l.args[c]
		if a.kind == TConst {
			return c, a.sym, true
		}
		if v := slots[a.slot]; !v.IsCVar() {
			return c, v, true
		}
	}
	return -1, cond.Term{}, false
}

// compiledRule is the part of a rule's compilation shared by all its
// delta positions: slots, head, comparisons and the per-rule strings.
type compiledRule struct {
	rule   Rule
	pred   string
	nSlots int
	head   []operand
	comps  []compPlan
	// headCond is the compiled head condition; hasHeadCond is false
	// when the rule has none.
	headCond    condPlan
	hasHeadCond bool

	// The ground comparisons' formulas (indexed like comps, nil where a
	// comparison depends on bindings) and the ground head condition,
	// built by the first emission that needs them; groundBuilt records
	// that they were.
	groundBuilt bool
	ground      []*cond.Formula
	groundHead  *cond.Formula

	// Strings built once per rule instead of once per tuple: the rule's
	// rendering for provenance (only when recording is on) and
	// the budget-trip locations.
	ruleStr   string
	condWhere string
	relWhere  string

	// plans[i+1] is the rule compiled with body literal i fed (nil for
	// negated literals); plans[0] is the full application.
	plans []*rulePlan

	// groups is the head relation's group table, shared with every
	// other rule deriving into it (see newEngine); rel is the head
	// relation in the store, set when the rule's stratum starts.
	groups groupTable
	rel    *relstore.Relation
}

// plan returns the rule compiled with the given body literal fed (-1
// for a full application).
func (cr *compiledRule) plan(deltaIdx int) *rulePlan { return cr.plans[deltaIdx+1] }

// groundFormulas builds the rule's binding-independent conditions once.
func (cr *compiledRule) groundFormulas() {
	if cr.groundBuilt {
		return
	}
	cr.groundBuilt = true
	cr.ground = make([]*cond.Formula, len(cr.comps))
	for i := range cr.comps {
		if cr.comps[i].ground {
			cr.ground[i] = cr.comps[i].formula(nil)
		}
	}
	if cr.hasHeadCond && cr.headCond.ground {
		cr.groundHead = cr.headCond.formula(nil)
	}
}

// rulePlan is a rule compiled for one delta position: the body in
// canonical order — the fed literal first, then the other positives in
// written order, then the negations.
type rulePlan struct {
	*compiledRule
	lits []litPlan
	nPos int  // lits[:nPos] are positive
	fed  bool // lits[0] reads the unit's index range of its relation
}

// compileRule compiles a validated rule for every delta position.
// recording asks for the rule's rendering (provenance on).
func compileRule(r Rule, recording bool) (*compiledRule, error) {
	cr := &compiledRule{
		rule:      r,
		pred:      r.Head.Pred,
		condWhere: "derived condition for " + r.Head.Pred,
		relWhere:  "derived relation " + r.Head.Pred,
	}
	if recording {
		cr.ruleStr = r.String()
	}
	// Slots in order of first occurrence in the positive literals; rule
	// safety guarantees they cover every other variable.
	slotOf := map[string]int{}
	for _, a := range r.Body {
		if a.Neg {
			continue
		}
		for _, t := range a.Args {
			if _, ok := slotOf[t.Name]; t.Kind == TVar && !ok {
				slotOf[t.Name] = len(slotOf)
			}
		}
	}
	cr.nSlots = len(slotOf)
	cr.head = make([]operand, len(r.Head.Args))
	for i, t := range r.Head.Args {
		o, err := compileOperand(t, slotOf)
		if err != nil {
			return nil, fmt.Errorf("faurelog: unbound head variable %s in %v", t.Name, r)
		}
		cr.head[i] = o
	}
	cr.comps = make([]compPlan, len(r.Comps))
	for i, c := range r.Comps {
		cp, err := compileComparison(c, slotOf)
		if err != nil {
			return nil, err
		}
		cr.comps[i] = cp
	}
	if r.HeadCond != nil {
		hc, err := compileCond(r.HeadCond, slotOf)
		if err != nil {
			return nil, err
		}
		cr.headCond, cr.hasHeadCond = hc, true
	}
	cr.plans = make([]*rulePlan, len(r.Body)+1)
	for d := -1; d < len(r.Body); d++ {
		if d >= 0 && r.Body[d].Neg {
			continue
		}
		p, err := cr.compilePlan(d, slotOf)
		if err != nil {
			return nil, err
		}
		cr.plans[d+1] = p
	}
	return cr, nil
}

// compilePlan lays out the body for one delta position and decides,
// for that order, where each variable is bound and what each literal
// can probe.
func (cr *compiledRule) compilePlan(deltaIdx int, slotOf map[string]int) (*rulePlan, error) {
	body := cr.rule.Body
	order := make([]int, 0, len(body))
	if deltaIdx >= 0 {
		order = append(order, deltaIdx)
	}
	for i, a := range body {
		if !a.Neg && i != deltaIdx {
			order = append(order, i)
		}
	}
	nPos := len(order)
	for i, a := range body {
		if a.Neg {
			order = append(order, i)
		}
	}
	p := &rulePlan{compiledRule: cr, lits: make([]litPlan, len(order)), nPos: nPos, fed: deltaIdx >= 0}
	bound := make([]bool, cr.nSlots)
	for k, bi := range order {
		a := body[bi]
		l := litPlan{pred: a.Pred, neg: a.Neg, pos: bi, args: make([]argPlan, len(a.Args))}
		for c, t := range a.Args {
			ap := argPlan{kind: t.Kind, slot: -1}
			switch t.Kind {
			case TVar:
				s, ok := slotOf[t.Name]
				if !ok {
					return nil, fmt.Errorf("faurelog: unbound variable %s in negated literal %v", t.Name, a)
				}
				ap.slot = s
			case TConst:
				ap.sym = t.Const
			default:
				ap.sym = t.Symbol()
			}
			l.args[c] = ap
		}
		l.assignRoles(bound)
		p.lits[k] = l
	}
	return p, nil
}

// matcher runs the c-valuation of body literals against tuples under
// a rule plan's canonical order: the executor's replay.
type matcher struct {
	slots  []cond.Term
	extras []*cond.Formula // scratch for match, reused across calls
}

// match implements the c-valuation v^C for one body literal against
// one tuple: program variables bind to (or, past their first
// occurrence, compare with) the tuple's c-domain symbols; constants
// match themselves directly or any c-variable via an emitted equality;
// rule c-variables match themselves directly or any other symbol via
// an emitted equality. It returns the emitted condition and whether
// the match is syntactically possible at all.
func (m *matcher) match(l *litPlan, tp ctable.Tuple) (*cond.Formula, bool) {
	extras := m.extras[:0]
	for c := range l.args {
		a := &l.args[c]
		v := tp.Values[c]
		switch a.kind {
		case TConst:
			if v.IsConst() {
				if a.sym != v {
					return nil, false
				}
				continue
			}
			extras = append(extras, cond.Compare(v, cond.Eq, a.sym))
		case TCVar:
			if a.sym == v {
				continue
			}
			extras = append(extras, cond.Compare(a.sym, cond.Eq, v))
		case TVar:
			if a.bind {
				m.slots[a.slot] = v
				continue
			}
			b := m.slots[a.slot]
			if b == v {
				continue
			}
			if b.IsConst() && v.IsConst() {
				return nil, false
			}
			extras = append(extras, cond.Compare(b, cond.Eq, v))
		}
	}
	m.extras = extras[:0]
	// And of zero or one conjunct allocates and interns nothing, so
	// skipping it yields the identical formula.
	var f *cond.Formula
	switch len(extras) {
	case 0:
		return cond.True(), true
	case 1:
		f = extras[0]
	default:
		f = cond.And(extras...)
	}
	if f.IsFalse() {
		return nil, false
	}
	return f, true
}
