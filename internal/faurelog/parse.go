package faurelog

import (
	"fmt"

	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/lang"
	"faure/internal/solver"
)

// Parse reads a fauré-log program:
//
//	% recursive reachability over the forwarding c-table (q4, q5)
//	reach(f, n1, n2) :- fwd(f, n1, n2).
//	reach(f, n1, n2) :- fwd(f, n1, n3), reach(f, n3, n2).
//	% failure patterns as comparison literals (q6)
//	t1(f, n1, n2) :- reach(f, n1, n2), $x+$y+$z = 1.
//	% negation with "not derivable" semantics (q9)
//	panic() :- r(Mkt, CS, p), not fw(Mkt, CS).
//
// Identifiers starting lowercase are program variables, uppercase ones
// and quoted/dotted/integer literals are constants, $name is a
// c-variable. An optional [condition] after the head adds explicit
// condition atoms. Comments run from '%' or '#' to end of line.
func Parse(src string) (*Program, error) {
	toks, err := lang.Lex(src)
	if err != nil {
		return nil, &ParseError{Err: err, Src: src}
	}
	p := &parser{toks: toks}
	prog := &Program{}
	for !p.at(lang.TEOF) {
		before := p.pos
		r, err := p.rule()
		if err != nil {
			return nil, &ParseError{Err: err, Src: src}
		}
		if p.pos == before {
			// Defensive: every successful rule consumes tokens; a
			// zero-progress iteration would loop forever on this input.
			return nil, &ParseError{Err: lang.Errorf(p.peek(), "parser made no progress"), Src: src}
		}
		prog.Rules = append(prog.Rules, r)
	}
	if err := prog.Validate(); err != nil {
		return nil, &ParseError{Err: err, Src: src}
	}
	return prog, nil
}

// ParseDatabase reads a c-table database in the textual format used by
// the CLI and tests:
//
//	var $x in {0, 1}.          % declare a c-variable with its domain
//	var $p.                    % an unbounded c-variable
//	fwd(1, 2)[$x = 1].         % a conditioned fact
//	fwd(1, 3)[$x = 0].
//	path('1.2.3.4', $q).       % facts may carry c-variables as values
//
// Fact arguments must be constants or c-variables (no program
// variables); conditions may be arbitrary boolean expressions over
// comparisons of c-variables and constants.
func ParseDatabase(src string) (*ctable.Database, error) {
	toks, err := lang.Lex(src)
	if err != nil {
		return nil, &ParseError{Err: err, Src: src}
	}
	p := &parser{toks: toks}
	db := ctable.NewDatabase()
	for !p.at(lang.TEOF) {
		before := p.pos
		if p.peek().IsIdent("var") {
			name, dom, err := p.varDecl()
			if err != nil {
				return nil, &ParseError{Err: err, Src: src}
			}
			db.DeclareVar(name, dom)
			continue
		}
		start := p.peek()
		r, err := p.rule()
		if err != nil {
			return nil, &ParseError{Err: err, Src: src}
		}
		if p.pos == before {
			return nil, &ParseError{Err: lang.Errorf(p.peek(), "parser made no progress"), Src: src}
		}
		if len(r.Body) > 0 || len(r.Comps) > 0 {
			return nil, &ParseError{Err: lang.Errorf(start, "database files may contain only facts and var declarations"), Src: src}
		}
		values := make([]cond.Term, len(r.Head.Args))
		for i, t := range r.Head.Args {
			if t.Kind == TVar {
				return nil, &ParseError{Err: lang.Errorf(start, "fact %s may not contain program variables", r.Head), Src: src}
			}
			values[i] = t.Symbol()
		}
		c := cond.True()
		if r.HeadCond != nil {
			c, err = groundCondition(r.HeadCond)
			if err != nil {
				return nil, &ParseError{Err: err, Src: src}
			}
		}
		tbl := db.Table(r.Head.Pred)
		if tbl == nil {
			attrs := make([]string, len(values))
			for i := range attrs {
				attrs[i] = "a" + string(rune('0'+i%10))
			}
			tbl = &ctable.Table{Schema: ctable.Schema{Name: r.Head.Pred, Attrs: attrs}}
			db.AddTable(tbl)
		}
		if err := tbl.Insert(ctable.NewTuple(values, c)); err != nil {
			return nil, &ParseError{Err: err, Src: src}
		}
	}
	return db, nil
}

// maxCondDepth caps condition-expression nesting (chains of '!' and
// parentheses). The recursive-descent parser uses one Go stack frame
// per nesting level, and a goroutine stack overflow is a fatal,
// unrecoverable crash — so adversarially deep inputs must be rejected
// with an ordinary position-annotated error well before that point.
const maxCondDepth = 10_000

type parser struct {
	toks []lang.Token
	pos  int
	// depth is the current condUnary recursion depth, bounded by
	// maxCondDepth.
	depth int
}

func (p *parser) peek() lang.Token { return p.toks[p.pos] }

func (p *parser) peek2() lang.Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() lang.Token {
	t := p.toks[p.pos]
	if t.Kind != lang.TEOF {
		p.pos++
	}
	return t
}

func (p *parser) at(k lang.Kind) bool { return p.peek().Kind == k }

func (p *parser) expectSym(sym string) error {
	t := p.next()
	if !t.Is(sym) {
		return lang.Errorf(t, "expected %q, found %s", sym, t)
	}
	return nil
}

// varDecl parses: var $x in {v1, v2, ...}.  |  var $x.
func (p *parser) varDecl() (string, solver.Domain, error) {
	p.next() // 'var'
	t := p.next()
	if t.Kind != lang.TCVar {
		return "", solver.Domain{}, lang.Errorf(t, "expected c-variable after 'var', found %s", t)
	}
	name := t.Text
	if p.peek().Is(".") {
		p.next()
		return name, solver.Domain{}, nil
	}
	kw := p.next()
	if !kw.IsIdent("in") {
		return "", solver.Domain{}, lang.Errorf(kw, "expected 'in' or '.', found %s", kw)
	}
	if err := p.expectSym("{"); err != nil {
		return "", solver.Domain{}, err
	}
	var values []cond.Term
	for {
		v, err := p.constTerm()
		if err != nil {
			return "", solver.Domain{}, err
		}
		values = append(values, v)
		if p.peek().Is(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectSym("}"); err != nil {
		return "", solver.Domain{}, err
	}
	if err := p.expectSym("."); err != nil {
		return "", solver.Domain{}, err
	}
	return name, solver.EnumDomain(values...), nil
}

func (p *parser) constTerm() (cond.Term, error) {
	t := p.next()
	switch t.Kind {
	case lang.TInt:
		return cond.Int(t.Int), nil
	case lang.TString:
		return cond.Str(t.Text), nil
	case lang.TIdent:
		if lang.IsVariableName(t.Text) {
			return cond.Term{}, lang.Errorf(t, "expected constant, found variable %s", t)
		}
		return cond.Str(t.Text), nil
	default:
		return cond.Term{}, lang.Errorf(t, "expected constant, found %s", t)
	}
}

func (p *parser) rule() (Rule, error) {
	head, err := p.atom(false)
	if err != nil {
		return Rule{}, err
	}
	r := Rule{Head: head}
	if p.peek().Is("[") {
		p.next()
		ce, err := p.condExpr()
		if err != nil {
			return Rule{}, err
		}
		if err := p.expectSym("]"); err != nil {
			return Rule{}, err
		}
		r.HeadCond = ce
	}
	if p.peek().Is(":-") {
		p.next()
		for {
			if p.isAtomStart() {
				a, err := p.literal()
				if err != nil {
					return Rule{}, err
				}
				r.Body = append(r.Body, a)
			} else {
				c, err := p.comparison()
				if err != nil {
					return Rule{}, err
				}
				r.Comps = append(r.Comps, c)
			}
			if p.peek().Is(",") {
				p.next()
				continue
			}
			break
		}
	}
	if err := p.expectSym("."); err != nil {
		return Rule{}, err
	}
	return r, nil
}

// isAtomStart distinguishes a relational literal (ident followed by
// '(' or the 'not' keyword) from a comparison literal.
func (p *parser) isAtomStart() bool {
	t := p.peek()
	if t.IsIdent("not") {
		return true
	}
	return t.Kind == lang.TIdent && p.peek2().Is("(")
}

func (p *parser) literal() (Atom, error) {
	neg := false
	if p.peek().IsIdent("not") {
		p.next()
		neg = true
	}
	return p.atom(neg)
}

func (p *parser) atom(neg bool) (Atom, error) {
	t := p.next()
	if t.Kind != lang.TIdent {
		return Atom{}, lang.Errorf(t, "expected predicate name, found %s", t)
	}
	a := Atom{Pred: t.Text, Neg: neg}
	if err := p.expectSym("("); err != nil {
		return Atom{}, err
	}
	if p.peek().Is(")") {
		p.next()
		return a, nil
	}
	for {
		arg, err := p.term()
		if err != nil {
			return Atom{}, err
		}
		a.Args = append(a.Args, arg)
		if p.peek().Is(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return Atom{}, err
	}
	return a, nil
}

func (p *parser) term() (Term, error) {
	t := p.next()
	switch t.Kind {
	case lang.TIdent:
		if lang.IsVariableName(t.Text) {
			return V(t.Text), nil
		}
		return C(cond.Str(t.Text)), nil
	case lang.TString:
		return C(cond.Str(t.Text)), nil
	case lang.TInt:
		return C(cond.Int(t.Int)), nil
	case lang.TCVar:
		return CV(t.Text), nil
	default:
		return Term{}, lang.Errorf(t, "expected term, found %s", t)
	}
}

// comparison parses: term (+ term)* op term
func (p *parser) comparison() (Comparison, error) {
	var sum []Term
	for {
		t, err := p.term()
		if err != nil {
			return Comparison{}, err
		}
		sum = append(sum, t)
		if p.peek().Is("+") {
			p.next()
			continue
		}
		break
	}
	op, err := p.compOp()
	if err != nil {
		return Comparison{}, err
	}
	rhs, err := p.term()
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Sum: sum, Op: op, RHS: rhs}, nil
}

func (p *parser) compOp() (cond.Op, error) {
	t := p.next()
	if t.Kind != lang.TSym {
		return 0, lang.Errorf(t, "expected comparison operator, found %s", t)
	}
	switch t.Text {
	case "=":
		return cond.Eq, nil
	case "!=":
		return cond.Ne, nil
	case "<":
		return cond.Lt, nil
	case "<=":
		return cond.Le, nil
	case ">":
		return cond.Gt, nil
	case ">=":
		return cond.Ge, nil
	default:
		return 0, lang.Errorf(t, "expected comparison operator, found %s", t)
	}
}

// condExpr parses a boolean expression over comparisons, with the
// usual precedence: ! binds tighter than &&, which binds tighter
// than ||. 'true' and 'false' are accepted as empty conjunction /
// disjunction.
func (p *parser) condExpr() (CondExpr, error) {
	return p.condOr()
}

func (p *parser) condOr() (CondExpr, error) {
	first, err := p.condAnd()
	if err != nil {
		return nil, err
	}
	sub := []CondExpr{first}
	for p.peek().Is("||") {
		p.next()
		nxt, err := p.condAnd()
		if err != nil {
			return nil, err
		}
		sub = append(sub, nxt)
	}
	if len(sub) == 1 {
		return first, nil
	}
	return CondOr{Sub: sub}, nil
}

func (p *parser) condAnd() (CondExpr, error) {
	first, err := p.condUnary()
	if err != nil {
		return nil, err
	}
	sub := []CondExpr{first}
	for p.peek().Is("&&") {
		p.next()
		nxt, err := p.condUnary()
		if err != nil {
			return nil, err
		}
		sub = append(sub, nxt)
	}
	if len(sub) == 1 {
		return first, nil
	}
	return CondAnd{Sub: sub}, nil
}

func (p *parser) condUnary() (CondExpr, error) {
	// All unbounded parser recursion funnels through here: '!' recurses
	// directly, '(' via condExpr → condOr → condAnd → condUnary.
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxCondDepth {
		return nil, lang.Errorf(p.peek(), "condition nested deeper than %d levels", maxCondDepth)
	}
	switch {
	case p.peek().Is("!"):
		p.next()
		sub, err := p.condUnary()
		if err != nil {
			return nil, err
		}
		return CondNot{Sub: sub}, nil
	case p.peek().Is("("):
		p.next()
		e, err := p.condExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.peek().IsIdent("true"):
		p.next()
		return CondAnd{}, nil
	case p.peek().IsIdent("false"):
		p.next()
		return CondOr{}, nil
	default:
		c, err := p.comparison()
		if err != nil {
			return nil, err
		}
		return CondComp{Comp: c}, nil
	}
}

// ParseCondition parses a standalone condition expression in the [...]
// syntax — comparisons over c-variables and constants combined with
// && || and ! — into a formula. Program variables are rejected.
func ParseCondition(src string) (*cond.Formula, error) {
	toks, err := lang.Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	ce, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(lang.TEOF) {
		return nil, lang.Errorf(p.peek(), "unexpected trailing input")
	}
	if vs := ce.vars(nil); len(vs) > 0 {
		return nil, fmt.Errorf("faurelog: condition uses program variable %s; only c-variables and constants are allowed", vs[0])
	}
	return groundCondition(ce)
}
