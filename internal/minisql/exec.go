package minisql

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"time"

	"faure/internal/budget"
	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/faultinject"
	"faure/internal/relstore"
	"faure/internal/solver"
)

// Options tunes execution.
type Options struct {
	// NoIndex disables MATCH-hint index probing (full cross products).
	NoIndex bool
	// MaxLoopIterations bounds LOOP blocks; 0 means the default
	// (100000).
	MaxLoopIterations int
	// Context cancels execution; it is polled between statements and
	// LOOP passes. Nil means background.
	Context context.Context
	// Budget is the live resource tracker the run charges (solver
	// steps, inserted tuples, wall clock); nil disables accounting.
	Budget *budget.B
}

func (o Options) tracker() *budget.B {
	if o.Budget != nil {
		return o.Budget
	}
	if o.Context != nil {
		return budget.New(o.Context, budget.Limits{})
	}
	return nil
}

func (o Options) maxIters() int {
	if o.MaxLoopIterations > 0 {
		return o.MaxLoopIterations
	}
	return 100000
}

// Stats mirrors the paper's phase split: SQLTime covers statement
// execution, SolverTime covers the UNSAT deletions.
type Stats struct {
	SQLTime    time.Duration
	SolverTime time.Duration
	Inserted   int // new tuples inserted (after dedup)
	Deleted    int // tuples removed by DELETE ... WHERE UNSAT
	Iterations int // LOOP passes executed
	// Truncated is non-nil when a budget stopped the script early; the
	// returned database then reflects only the statements (and LOOP
	// passes) that completed.
	Truncated *budget.Exceeded
}

// Run executes the script over the database and returns the resulting
// database (inputs plus created tables). The input is never written:
// the store loads each input table by sharing its tuples, and the
// result's tables share their arrays with the store, each clipped to
// its length, so appending to a result table copies instead of writing
// into the input. The result's domain map is a copy of the input's.
func Run(script *Script, db *ctable.Database, opts Options) (*ctable.Database, *Stats, error) {
	ex := &executor{
		store: relstore.FromDatabase(db),
		sol:   solver.New(db.Doms),
		opts:  opts,
		bud:   opts.tracker(),
		attrs: map[string][]string{},
	}
	ex.sol.SetBudget(ex.bud)
	for name, t := range db.Tables {
		ex.attrs[name] = t.Schema.Attrs
		// Insert dedups against the relation's identity index (data hash
		// + interned condition id), seeded from the existing tuples.
		ex.store.Rel(name).TrackIdentity()
	}
	start := time.Now()
	for _, st := range script.Stmts {
		if err := ex.bud.Check("statement"); err != nil {
			ex.stats.Truncated, _ = budget.As(err)
			break
		}
		if err := ex.exec(st); err != nil {
			// A budget trip mid-statement degrades to a truncated
			// result; anything else is a hard error. Raw context
			// sentinels (from injected faults) count as cancellation.
			if ex2, ok := budget.As(err); ok {
				ex.stats.Truncated = ex2
				break
			}
			if errors.Is(err, context.Canceled) {
				ex.stats.Truncated = &budget.Exceeded{Kind: budget.Canceled}
				break
			}
			if errors.Is(err, context.DeadlineExceeded) {
				ex.stats.Truncated = &budget.Exceeded{Kind: budget.Deadline}
				break
			}
			return nil, nil, err
		}
	}
	ex.stats.SQLTime = time.Since(start) - ex.stats.SolverTime
	out := ctable.NewDatabase()
	maps.Copy(out.Doms, db.Doms)
	for _, name := range ex.store.Names() {
		rel := ex.store.Rel(name)
		out.AddTable(rel.Table(ex.attrs[name]))
	}
	return out, &ex.stats, nil
}

type executor struct {
	store *relstore.Store
	sol   *solver.Solver
	opts  Options
	bud   *budget.B
	attrs map[string][]string
	stats Stats
}

func (ex *executor) exec(st Stmt) error {
	switch s := st.(type) {
	case *CreateTable:
		if ex.store.Rel(s.Table) != nil {
			return fmt.Errorf("minisql: table %s already exists", s.Table)
		}
		ex.store.Ensure(s.Table, len(s.Cols)).TrackIdentity()
		ex.attrs[s.Table] = s.Cols
		return nil
	case *InsertValues:
		return ex.insertValues(s)
	case *InsertSelect:
		_, err := ex.insertSelect(s)
		return err
	case *DeleteUnsat:
		return ex.deleteUnsat(s.Table)
	case *Loop:
		for iter := 0; ; iter++ {
			if iter >= ex.opts.maxIters() {
				return fmt.Errorf("minisql: LOOP did not reach a fixpoint within %d iterations", ex.opts.maxIters())
			}
			if faultinject.Armed() {
				if err := faultinject.Fire(faultinject.MinisqlLoop); err != nil {
					return err
				}
			}
			if err := ex.bud.Check(fmt.Sprintf("LOOP pass %d", iter)); err != nil {
				return err
			}
			ex.stats.Iterations++
			inserted := 0
			for _, inner := range s.Body {
				is, ok := inner.(*InsertSelect)
				if !ok {
					return fmt.Errorf("minisql: LOOP bodies may contain only INSERT ... SELECT, found %T", inner)
				}
				n, err := ex.insertSelect(is)
				if err != nil {
					return err
				}
				inserted += n
			}
			if inserted == 0 {
				return nil
			}
		}
	default:
		return fmt.Errorf("minisql: unknown statement %T", st)
	}
}

func (ex *executor) insertValues(s *InsertValues) error {
	rel := ex.store.Rel(s.Table)
	if rel == nil {
		return fmt.Errorf("minisql: insert into unknown table %s", s.Table)
	}
	for _, row := range s.Rows {
		if len(row) != rel.Arity+1 {
			return fmt.Errorf("minisql: insert into %s with %d expressions, want %d values plus a condition", s.Table, len(row), rel.Arity)
		}
		values := make([]cond.Term, rel.Arity)
		for i := 0; i < rel.Arity; i++ {
			v, err := evalCell(row[i], nil)
			if err != nil {
				return err
			}
			values[i] = v
		}
		c, err := ex.evalCond(row[rel.Arity], nil)
		if err != nil {
			return err
		}
		if err := ex.insert(s.Table, rel, ctable.NewTuple(values, c)); err != nil {
			return err
		}
	}
	return nil
}

// insert dedups and appends; returns nil even when duplicate.
func (ex *executor) insert(table string, rel *relstore.Relation, tp ctable.Tuple) error {
	if tp.Condition().IsFalse() {
		return nil
	}
	if rel.HasIdentity(tp) {
		return nil
	}
	if err := ex.bud.AddTuples(1, "table "+table); err != nil {
		return err
	}
	if err := rel.Insert(tp); err != nil {
		return err
	}
	ex.stats.Inserted++
	return nil
}

func (ex *executor) insertSelect(s *InsertSelect) (int, error) {
	dst := ex.store.Rel(s.Table)
	if dst == nil {
		return 0, fmt.Errorf("minisql: insert into unknown table %s", s.Table)
	}
	sel := s.Select
	if len(sel.Exprs) != dst.Arity+1 {
		return 0, fmt.Errorf("minisql: SELECT for %s projects %d expressions, want %d plus a condition", s.Table, len(sel.Exprs), dst.Arity)
	}
	rels := make([]*relstore.Relation, len(sel.From))
	for i, f := range sel.From {
		rels[i] = ex.store.Rel(f.Table)
		if rels[i] == nil {
			return 0, fmt.Errorf("minisql: unknown table %s in FROM", f.Table)
		}
	}
	row := map[string]ctable.Tuple{}
	before := ex.stats.Inserted
	var join func(i int) error
	join = func(i int) error {
		if i == len(sel.From) {
			values := make([]cond.Term, dst.Arity)
			for k := 0; k < dst.Arity; k++ {
				v, err := evalCell(sel.Exprs[k], row)
				if err != nil {
					return err
				}
				values[k] = v
			}
			c, err := ex.evalCond(sel.Exprs[dst.Arity], row)
			if err != nil {
				return err
			}
			return ex.insert(s.Table, dst, ctable.NewTuple(values, c))
		}
		idxs := ex.candidates(sel, rels, row, i)
		alias := sel.From[i].Alias
		for _, idx := range idxs {
			row[alias] = rels[i].Tuple(idx)
			if err := join(i + 1); err != nil {
				return err
			}
		}
		delete(row, alias)
		return nil
	}
	if err := join(0); err != nil {
		return 0, err
	}
	return ex.stats.Inserted - before, nil
}

// candidates applies the first usable MATCH hint for the i-th FROM
// item: one whose other side is a literal or a column of an
// already-joined alias resolving to a constant.
func (ex *executor) candidates(sel Select, rels []*relstore.Relation, row map[string]ctable.Tuple, i int) []int {
	rel := rels[i]
	if ex.opts.NoIndex {
		return rel.All()
	}
	alias := sel.From[i].Alias
	for _, m := range sel.Match {
		var own ColRef
		var other Expr
		switch {
		case m.Left.Alias == alias:
			own, other = m.Left, m.Right
		default:
			if rc, ok := m.Right.(ColRef); ok && rc.Alias == alias {
				own, other = rc, m.Left
			} else {
				continue
			}
		}
		key, ok := resolveConst(other, row)
		if !ok {
			continue
		}
		return rel.Candidates(own.Col, key)
	}
	return rel.All()
}

// resolveConst resolves a hint's other side to a constant probe key.
func resolveConst(e Expr, row map[string]ctable.Tuple) (cond.Term, bool) {
	switch v := e.(type) {
	case Lit:
		if v.Value.IsConst() {
			return v.Value, true
		}
	case ColRef:
		tp, ok := row[v.Alias]
		if ok && v.Col < len(tp.Values) && tp.Values[v.Col].IsConst() {
			return tp.Values[v.Col], true
		}
	}
	return cond.Term{}, false
}

func (ex *executor) deleteUnsat(table string) error {
	rel := ex.store.Rel(table)
	if rel == nil {
		return fmt.Errorf("minisql: delete from unknown table %s", table)
	}
	kept := relstore.NewRelation(table, rel.Arity)
	kept.TrackIdentity()
	for _, idx := range rel.All() {
		tp := rel.Tuple(idx)
		start := time.Now()
		sat, err := ex.sol.Satisfiable(tp.Condition())
		ex.stats.SolverTime += time.Since(start)
		if err != nil {
			return err
		}
		if !sat {
			ex.stats.Deleted++
			continue
		}
		if err := kept.Insert(tp); err != nil {
			return err
		}
	}
	ex.store.Replace(table, kept)
	return nil
}

// evalCell evaluates a cell-valued expression (column or literal).
func evalCell(e Expr, row map[string]ctable.Tuple) (cond.Term, error) {
	switch v := e.(type) {
	case Lit:
		return v.Value, nil
	case ColRef:
		tp, ok := row[v.Alias]
		if !ok {
			return cond.Term{}, fmt.Errorf("minisql: unknown alias %s", v.Alias)
		}
		if v.Col < 0 || v.Col >= len(tp.Values) {
			return cond.Term{}, fmt.Errorf("minisql: column %d out of range for alias %s", v.Col, v.Alias)
		}
		return tp.Values[v.Col], nil
	default:
		return cond.Term{}, fmt.Errorf("minisql: expression %s is not cell-valued", e)
	}
}

// evalCond evaluates a condition-valued expression. It is a method on
// the executor because NOTIN must consult the store.
func (ex *executor) evalCond(e Expr, row map[string]ctable.Tuple) (*cond.Formula, error) {
	switch v := e.(type) {
	case BoolLit:
		if v.Value {
			return cond.True(), nil
		}
		return cond.False(), nil
	case CondOf:
		tp, ok := row[v.Alias]
		if !ok {
			return nil, fmt.Errorf("minisql: unknown alias %s", v.Alias)
		}
		return tp.Condition(), nil
	case AndExpr:
		parts := make([]*cond.Formula, len(v.Args))
		var err error
		for i, a := range v.Args {
			if parts[i], err = ex.evalCond(a, row); err != nil {
				return nil, err
			}
		}
		return cond.And(parts...), nil
	case OrExpr:
		parts := make([]*cond.Formula, len(v.Args))
		var err error
		for i, a := range v.Args {
			if parts[i], err = ex.evalCond(a, row); err != nil {
				return nil, err
			}
		}
		return cond.Or(parts...), nil
	case NotExpr:
		f, err := ex.evalCond(v.Arg, row)
		if err != nil {
			return nil, err
		}
		return cond.Not(f), nil
	case NotInExpr:
		return ex.evalNotIn(v, row)
	case CmpExpr:
		sum := make([]cond.Term, len(v.Sum))
		for i, a := range v.Sum {
			t, err := evalCell(a, row)
			if err != nil {
				return nil, err
			}
			sum[i] = t
		}
		rhs, err := evalCell(v.Right, row)
		if err != nil {
			return nil, err
		}
		return cond.AtomF(cond.NewSumAtom(sum, v.Op, rhs)), nil
	default:
		return nil, fmt.Errorf("minisql: expression %s is not condition-valued", e)
	}
}

// evalNotIn computes the "not derivable" condition for a NOTIN
// expression: the pattern cells are resolved against the current row,
// then matched against every tuple of the referenced table.
func (ex *executor) evalNotIn(e NotInExpr, row map[string]ctable.Tuple) (*cond.Formula, error) {
	pattern := make([]cond.Term, len(e.Cells))
	for i, c := range e.Cells {
		v, err := evalCell(c, row)
		if err != nil {
			return nil, err
		}
		pattern[i] = v
	}
	rel := ex.store.Rel(e.Table)
	if rel == nil {
		return cond.True(), nil
	}
	if rel.Arity != len(pattern) {
		return nil, fmt.Errorf("minisql: NOTIN(%s, ...) with %d cells, table has arity %d", e.Table, len(pattern), rel.Arity)
	}
	var matches []*cond.Formula
	for _, idx := range rel.All() {
		tp := rel.Tuple(idx)
		eqs := make([]*cond.Formula, 0, len(pattern)+1)
		possible := true
		for i, pv := range pattern {
			tv := tp.Values[i]
			if pv.IsConst() && tv.IsConst() {
				if !pv.Equal(tv) {
					possible = false
					break
				}
				continue
			}
			if pv.Equal(tv) {
				continue
			}
			eqs = append(eqs, cond.Compare(pv, cond.Eq, tv))
		}
		if !possible {
			continue
		}
		eqs = append(eqs, tp.Condition())
		matches = append(matches, cond.And(eqs...))
	}
	return cond.Not(cond.Or(matches...)), nil
}
