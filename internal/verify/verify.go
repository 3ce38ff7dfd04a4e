// Package verify implements fauré's relative-complete verification
// (§5): a ladder of tests that each give a decisive answer whenever
// the information available to the verifier permits one, and answer
// Unknown only when more information is genuinely needed.
//
//   - Category (i) — only the constraint definitions are known: the
//     target holds after any update that preserves the known
//     constraints iff the knowns subsume it (program containment,
//     decided by the fauré-log reduction in package containment).
//   - Category (ii) — the update is also known: the target is rewritten
//     to reflect the update and checked against the knowns on the
//     pre-update state.
//   - Direct — the full network state is known: the constraint is
//     simply evaluated; the verdict is per possible world (Holds,
//     Violated, or Conditional when it depends on the unknowns).
package verify

import (
	"errors"
	"fmt"
	"strings"

	"faure/internal/budget"
	"faure/internal/cond"
	"faure/internal/containment"
	"faure/internal/ctable"
	"faure/internal/faurelog"
	"faure/internal/guard"
	"faure/internal/obs"
	"faure/internal/prov"
	"faure/internal/rewrite"
	"faure/internal/solver"
)

// Verdict is a relative-complete answer.
type Verdict int

const (
	// Unknown means the available information cannot decide the
	// question; a stronger test (more information) is needed.
	Unknown Verdict = iota
	// Holds means the constraint is guaranteed to hold.
	Holds
	// Violated means the constraint is violated in every possible
	// world of the state.
	Violated
	// Conditional means the constraint's status depends on the
	// unknowns: it is violated in some possible worlds and holds in
	// others. The report carries the violation condition.
	Conditional
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Holds:
		return "holds"
	case Violated:
		return "violated"
	case Conditional:
		return "conditional"
	default:
		return "unknown"
	}
}

// Report is the outcome of one verification test.
type Report struct {
	Verdict Verdict
	// Reason explains the verdict in one sentence.
	Reason string
	// ViolationCond, for Conditional direct evaluation, is the
	// condition under which the constraint is violated.
	ViolationCond *cond.Formula
	// Exhausted, set only on Unknown verdicts, records the resource
	// budget whose exhaustion forced the degradation — distinguishing
	// Unknown-by-budget ("the verifier ran out of resources") from
	// Unknown-by-information ("the available information cannot decide
	// this"), which Reason alone conflates.
	Exhausted *budget.Exceeded
}

// Verifier bundles the schema knowledge shared by all tests.
type Verifier struct {
	// Doms declares the c-variables of the shared c-domain.
	Doms solver.Domains
	// Schema optionally types base-relation attributes (see
	// containment.Schema).
	Schema *containment.Schema
	// Obs, when set, receives per-test spans (verify.category_i /
	// verify.category_ii / verify.direct / verify.ladder), verdict
	// counters (verify.verdict.<verdict>), and — for Unknown answers —
	// the degradation reason (verify.unknown_reason.<class>). The inner
	// containment checks, evaluations, and solvers report through it
	// too. Nil disables observation.
	Obs obs.Observer
	// Budget, when set, is the live resource tracker every test drains
	// — the subsumption mappings, the inner fauré-log evaluations, and
	// the solvers all charge the same budget, so "10k solver steps"
	// bounds the whole ladder, not each phase. Exhaustion is never an
	// error: the affected test reports Unknown with Report.Exhausted
	// set and the structured reason in Report.Reason. Nil disables
	// governance.
	Budget *budget.B
}

// observer returns the effective observer and whether it is live.
func (v *Verifier) observer() (obs.Observer, bool) {
	return obs.OrNop(v.Obs), v.Obs != nil && v.Obs.Enabled()
}

// countVerdict records a test's verdict and, for Unknown, the reason
// class explaining which information was missing.
func (v *Verifier) countVerdict(test string, verdict Verdict, unknownClass string) {
	o, on := v.observer()
	if !on {
		return
	}
	o.Count("verify.verdict."+verdict.String(), 1)
	if verdict == Unknown && unknownClass != "" {
		o.Count("verify.unknown_reason."+unknownClass, 1)
	}
	o.Count("verify."+test+".runs", 1)
}

// degraded converts a budget trip (or a truncated evaluation) into an
// Unknown report with the structured reason — "solver step budget
// (10000) exhausted at stratum 3" — counted under
// verify.unknown_reason.budget-<kind> and attached to the span. A
// non-budget error passes through as (report{}, err, false).
func (v *Verifier) degraded(test string, span obs.Span, err error) (Report, error, bool) {
	ex, ok := budget.As(err)
	if !ok {
		return Report{}, err, false
	}
	v.countVerdict(test, Unknown, "budget-"+string(ex.Kind))
	if _, on := v.observer(); on && span != nil {
		span.SetAttrs(obs.String("exhausted", string(ex.Kind)))
	}
	return Report{
		Verdict:   Unknown,
		Reason:    ex.Error(),
		Exhausted: ex,
	}, nil, true
}

// CategoryI runs the weakest test: only the constraint definitions are
// visible. It answers Holds when the known constraints subsume the
// target and Unknown otherwise.
func (v *Verifier) CategoryI(target containment.Constraint, known []containment.Constraint) (rep Report, err error) {
	defer guard.Recover("verify.CategoryI", &err)
	o, on := v.observer()
	var span obs.Span
	if on {
		span = o.StartSpan("verify.category_i", obs.String("target", target.Name))
		defer span.End()
	}
	res, err := containment.SubsumesWith(target, known, v.Doms, v.Schema, containment.Opts{Obs: obs.Under(span, v.Obs), Budget: v.Budget})
	if errors.Is(err, containment.ErrOutsideFragment) {
		// A target outside the subsumption fragment (recursive or
		// negated intermediates) is not an error: this level simply
		// cannot decide it.
		v.countVerdict("category_i", Unknown, "outside-fragment")
		return Report{Verdict: Unknown, Reason: err.Error()}, nil
	}
	if err != nil {
		if rep, err, ok := v.degraded("category_i", span, err); ok {
			return rep, err
		}
		return Report{}, err
	}
	if res.Contained {
		v.countVerdict("category_i", Holds, "")
		return Report{Verdict: Holds, Reason: fmt.Sprintf("%s is subsumed by {%s}", target.Name, names(known))}, nil
	}
	v.countVerdict("category_i", Unknown, "not-subsumed")
	return Report{Verdict: Unknown, Reason: fmt.Sprintf("%s is not subsumed by {%s} (rule %s); more information needed", target.Name, names(known), res.Witness)}, nil
}

// CategoryII runs the stronger test: the update is also visible. It
// answers Holds when the target, rewritten to reflect the update, is
// subsumed by the constraints known to hold before the update.
func (v *Verifier) CategoryII(target containment.Constraint, u rewrite.Update, known []containment.Constraint) (rep Report, err error) {
	defer guard.Recover("verify.CategoryII", &err)
	o, on := v.observer()
	var span obs.Span
	if on {
		span = o.StartSpan("verify.category_ii", obs.String("target", target.Name))
		defer span.End()
	}
	res, err := containment.SubsumesAfterUpdateWith(target, u, known, v.Doms, v.Schema, containment.Opts{Obs: obs.Under(span, v.Obs), Budget: v.Budget})
	if errors.Is(err, containment.ErrOutsideFragment) {
		v.countVerdict("category_ii", Unknown, "outside-fragment")
		return Report{Verdict: Unknown, Reason: err.Error()}, nil
	}
	if err != nil {
		if rep, err, ok := v.degraded("category_ii", span, err); ok {
			return rep, err
		}
		return Report{}, err
	}
	if res.Contained {
		v.countVerdict("category_ii", Holds, "")
		return Report{Verdict: Holds, Reason: fmt.Sprintf("%s rewritten under update [%s] is subsumed by {%s}", target.Name, u, names(known))}, nil
	}
	v.countVerdict("category_ii", Unknown, "not-subsumed")
	return Report{Verdict: Unknown, Reason: fmt.Sprintf("%s under update [%s] is not subsumed by {%s} (rule %s)", target.Name, u, names(known), res.Witness)}, nil
}

// Direct evaluates the constraint on a fully-known (possibly still
// partial, i.e. c-table) state: Holds when no satisfiable panic is
// derivable, Violated when panic is derivable in every world, and
// Conditional with the violation condition otherwise.
func (v *Verifier) Direct(target containment.Constraint, db *ctable.Database) (rep Report, err error) {
	defer guard.Recover("verify.Direct", &err)
	o, on := v.observer()
	var span obs.Span
	if on {
		span = o.StartSpan("verify.direct", obs.String("target", target.Name))
		defer span.End()
	}
	res, err := faurelog.Eval(target.Program, db, faurelog.Options{Observer: obs.Under(span, v.Obs), Budget: v.Budget})
	if err != nil {
		return Report{}, err
	}
	if res.Truncated != nil {
		// The panic derivation is incomplete: absence of panic in a
		// truncated fixpoint proves nothing, so degrade to Unknown with
		// the exhausted budget as the structured reason.
		if rep, err, ok := v.degraded("direct", span, res.Truncated); ok {
			return rep, err
		}
	}
	violation := cond.False()
	if tbl := res.DB.Table(containment.PanicPred); tbl != nil {
		for _, tp := range tbl.Tuples {
			violation = cond.Or(violation, tp.Condition())
		}
	}
	s := solver.New(db.Doms)
	s.SetBudget(v.Budget)
	if on {
		s.SetObserver(v.Obs)
	}
	sat, err := s.Satisfiable(violation)
	if err != nil {
		if rep, err, ok := v.degraded("direct", span, err); ok {
			return rep, err
		}
		return Report{}, err
	}
	if !sat {
		v.countVerdict("direct", Holds, "")
		return Report{Verdict: Holds, Reason: fmt.Sprintf("%s derives no satisfiable panic", target.Name)}, nil
	}
	valid, err := s.Valid(violation)
	if err != nil {
		if rep, err, ok := v.degraded("direct", span, err); ok {
			return rep, err
		}
		return Report{}, err
	}
	if valid {
		v.countVerdict("direct", Violated, "")
		return Report{Verdict: Violated, Reason: fmt.Sprintf("%s is violated in every possible world", target.Name), ViolationCond: violation}, nil
	}
	v.countVerdict("direct", Conditional, "")
	return Report{
		Verdict:       Conditional,
		Reason:        fmt.Sprintf("%s is violated exactly when %v", target.Name, violation),
		ViolationCond: violation,
	}, nil
}

// DirectAfterUpdate applies the update to the state and evaluates the
// constraint on the result — the ground truth the category (ii) test
// is validated against. It also demonstrates the Listing 4 rewrite:
// the same verdict is obtained by evaluating the rewritten constraint
// on the pre-update state.
func (v *Verifier) DirectAfterUpdate(target containment.Constraint, u rewrite.Update, db *ctable.Database) (rep Report, err error) {
	defer guard.Recover("verify.DirectAfterUpdate", &err)
	post, err := rewrite.ApplyBudgeted(db, u, v.Budget)
	if err != nil {
		if rep, err, ok := v.degraded("direct", nil, err); ok {
			return rep, err
		}
		return Report{}, err
	}
	return v.Direct(target, post)
}

// DirectViaRewrite evaluates the Listing 4 rewritten constraint C' on
// the pre-update state; by construction the verdict equals
// DirectAfterUpdate's.
func (v *Verifier) DirectViaRewrite(target containment.Constraint, u rewrite.Update, db *ctable.Database) (rep Report, err error) {
	defer guard.Recover("verify.DirectViaRewrite", &err)
	rewritten, err := rewrite.RewriteConstraintWith(target.Program, u, v.Obs, v.Budget)
	if err != nil {
		if rep, err, ok := v.degraded("direct", nil, err); ok {
			return rep, err
		}
		return Report{}, err
	}
	c := containment.Constraint{Name: target.Name + "'", Program: rewritten}
	return v.Direct(c, db)
}

// Ladder runs the tests in order of increasing information — category
// (i), then category (ii) if an update is supplied, then direct
// evaluation if a state is supplied — returning the first decisive
// report, each annotated with the level that decided it.
func (v *Verifier) Ladder(target containment.Constraint, known []containment.Constraint, u *rewrite.Update, db *ctable.Database) (rep Report, level string, err error) {
	defer guard.Recover("verify.Ladder", &err)
	o, on := v.observer()
	var span obs.Span
	if on {
		span = o.StartSpan("verify.ladder", obs.String("target", target.Name))
		defer span.End()
	}
	decided := func(rep Report, level string) (Report, string, error) {
		if on {
			o.Count("verify.ladder.decided_at."+level, 1)
			span.SetAttrs(obs.String("level", level), obs.String("verdict", rep.Verdict.String()))
		}
		return rep, level, nil
	}
	// The tests run under the ladder's span.
	sub := *v
	sub.Obs = obs.Under(span, v.Obs)
	v = &sub
	rep, err = v.CategoryI(target, known)
	if err != nil {
		return Report{}, "", err
	}
	if rep.Verdict != Unknown {
		return decided(rep, "category-i")
	}
	if rep.Exhausted != nil {
		// The budget is sticky: every stronger test would trip at its
		// first checkpoint, so stop here with the structured reason.
		return decided(rep, "category-i")
	}
	if u != nil {
		rep, err = v.CategoryII(target, *u, known)
		if err != nil {
			return Report{}, "", err
		}
		if rep.Verdict != Unknown {
			return decided(rep, "category-ii")
		}
		if rep.Exhausted != nil {
			return decided(rep, "category-ii")
		}
	}
	if db != nil {
		if u != nil {
			rep, err = v.DirectAfterUpdate(target, *u, db)
		} else {
			rep, err = v.Direct(target, db)
		}
		if err != nil {
			return Report{}, "", err
		}
		return decided(rep, "direct")
	}
	if on {
		o.Count("verify.unknown_reason.exhausted", 1)
	}
	return decided(rep, "exhausted")
}

func names(cs []containment.Constraint) string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name
	}
	return strings.Join(out, ", ")
}

// ExplainViolations evaluates the constraint with provenance recording
// and returns the derivation tree of every satisfiable panic tuple —
// why the constraint is (conditionally) violated on this state. An
// empty slice means the constraint holds; a budget trip is returned as
// the error.
func (v *Verifier) ExplainViolations(target containment.Constraint, db *ctable.Database) (out []*prov.Tree, err error) {
	defer guard.Recover("verify.ExplainViolations", &err)
	found, err := v.violations(target, db, nil, 0)
	if err != nil {
		return nil, err
	}
	return found.trees, nil
}
