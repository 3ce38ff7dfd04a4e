package faurelog

import (
	"fmt"
	"sort"
	"time"

	"faure/internal/ctable"
	"faure/internal/faultinject"
	"faure/internal/obs"
)

// seedCheckEvery is how many seeded facts pass between cancellation
// polls while EvalIncrement inserts its initial delta: coarse enough
// to stay off the hot path, fine enough that a canceled context stops
// a million-fact batch within microseconds.
const seedCheckEvery = 256

// EvalIncrement extends a previous evaluation with newly inserted EDB
// facts, re-deriving only what the additions enable: semi-naive
// propagation seeded with the new tuples instead of a from-scratch
// fixpoint. The paper's related work contrasts fauré with incremental
// engines (INCV, differential datalog); this entry point provides the
// corresponding capability for the insertion-monotone fragment.
//
// prev must be the database returned by a prior Eval of the same
// program (input relations plus derived ones); added maps relation
// names to the facts to insert. The program must be positive
// (negation is not insertion-monotone: a new fact can retract
// conclusions, which requires deletion propagation this engine does
// not implement — re-evaluate from scratch instead).
//
// Cancellation is honored exactly as in Eval: Options.Context (or a
// canceled Options.Budget) is polled while the new facts are seeded
// and at every propagation round, so a client disconnect aborts the
// increment at its next checkpoint with a Truncated partial result
// instead of running to completion. prev is never mutated — the seeded
// facts and re-derivations live in the engine's private store, so an
// aborted increment leaves the caller's database untouched. The
// faultinject point faurelog.increment.commit fires after propagation
// converges, immediately before the result database is assembled, so
// crash-recovery tests can fail the commit deterministically.
func EvalIncrement(prog *Program, prev *ctable.Database, added map[string][]ctable.Tuple, opts Options) (*Result, error) {
	for _, r := range prog.Rules {
		for _, a := range r.Body {
			if a.Neg {
				return nil, fmt.Errorf("faurelog: EvalIncrement requires a positive program (negated literal %v)", a)
			}
		}
	}
	idb := prog.IDB()
	for pred := range added {
		if idb[pred] {
			return nil, fmt.Errorf("faurelog: EvalIncrement cannot insert into derived predicate %s", pred)
		}
	}
	e, err := newEngine(prog, prev, opts)
	if err != nil {
		return nil, err
	}
	for pred := range added {
		e.load(pred)
	}
	// Insert the new facts, recording the genuinely new ones as the
	// initial delta. The touched EDB relations are exported into the
	// result so successive increments see the accumulated facts.
	// Cancellation is polled every seedCheckEvery insertions, so a
	// canceled client aborts even a huge fact batch promptly; a trip
	// here degrades to a Truncated partial result exactly like a trip
	// during propagation.
	var runErr error
	seedDelta := delta{}
	addedPreds := make([]string, 0, len(added))
	for pred := range added {
		addedPreds = append(addedPreds, pred)
	}
	sort.Strings(addedPreds)
	seeded := 0
seedLoop:
	for _, pred := range addedPreds {
		tuples := added[pred]
		e.extraExport = append(e.extraExport, pred)
		rel := e.store.Rel(pred)
		if rel == nil {
			if len(tuples) == 0 {
				continue
			}
			// A relation the program names takes its literals' arity, so
			// a fact of another width is refused below.
			arity, named := e.arity[pred]
			if !named {
				arity = len(tuples[0].Values)
			}
			rel = e.store.Ensure(pred, arity)
			e.noteArity(pred, arity)
		}
		// newEngine seeded the derived relations' groups from prev; an
		// added relation's rows and facts only need dedup here.
		groups := seedGroups(rel)
		for _, tp := range tuples {
			if seeded%seedCheckEvery == 0 {
				if err := e.bud.Check("increment seed"); err != nil {
					runErr = err
					break seedLoop
				}
			}
			seeded++
			if len(tp.Values) != rel.Arity {
				return nil, fmt.Errorf("faurelog: inserted tuple arity %d, relation %s has %d", len(tp.Values), pred, rel.Arity)
			}
			if tp.Condition().IsFalse() {
				continue
			}
			if !groups.seed(tp) {
				continue
			}
			if err := rel.Insert(tp); err != nil {
				return nil, err
			}
			seedDelta[pred] = append(seedDelta[pred], tp)
		}
	}

	strata, err := Stratify(prog)
	if err != nil {
		return nil, err
	}
	for pred := range idb {
		e.derivedOrder = append(e.derivedOrder, pred)
	}
	start := time.Now()
	var evalSpan obs.Span
	if e.obsOn {
		evalSpan = e.o.StartSpan("eval",
			obs.Int("rules", int64(len(prog.Rules))), obs.Bool("incremental", true))
	}
	// Propagate through the strata in order; each stratum consumes the
	// deltas accumulated so far (its own head deltas feed later
	// strata).
	pending := seedDelta
	if runErr == nil {
		for si, preds := range strata {
			rules, _ := e.stratumRules(preds)
			newHere, err := e.propagate(rules, pending, evalSpan, si)
			if err != nil {
				runErr = err
				break
			}
			for pred, tuples := range newHere {
				pending[pred] = append(pending[pred], tuples...)
			}
		}
	}
	// The increment's commit point: propagation has converged and the
	// result database is about to be assembled. Tests arm this point to
	// make a mid-update crash deterministic (the serve writer treats the
	// error as a failed apply and rolls back to the previous
	// generation).
	if runErr == nil && faultinject.Armed() {
		runErr = faultinject.Fire(faultinject.FaurelogIncrementCommit)
	}
	if runErr = e.finish(start, evalSpan, runErr); runErr != nil {
		// Budget exhaustion degrades to a truncated partial result,
		// exactly as in scratch evaluation.
		if ex := asExceeded(runErr); ex != nil {
			res, rerr := e.result()
			if rerr != nil {
				return nil, rerr
			}
			res.Truncated = ex
			return res, nil
		}
		return nil, runErr
	}
	return e.result()
}

// propagate runs semi-naive rounds for one stratum's rules, starting
// from the given deltas (over any predicate, not just the recursive
// ones) and returning the tuples newly derived for this stratum's
// heads.
func (e *engine) propagate(rules []*compiledRule, seed delta, evalSpan obs.Span, stratum int) (delta, error) {
	for _, cr := range rules {
		e.store.Ensure(cr.pred, len(cr.head))
	}
	produced := delta{}
	cur := seed
	for iter := 0; ; iter++ {
		e.stats.Iterations++
		if iter >= e.opts.maxIters() {
			return nil, fmt.Errorf("faurelog: incremental fixpoint did not converge within %d iterations", e.opts.maxIters())
		}
		next := delta{}
		sink := func(pred string, tp ctable.Tuple) {
			next[pred] = append(next[pred], tp)
			produced[pred] = append(produced[pred], tp)
		}
		var units []unit
		for _, cr := range rules {
			for i, a := range cr.rule.Body {
				d := cur[a.Pred]
				if len(d) == 0 {
					continue
				}
				units = append(units, unit{p: cr.plan(i), delta: d})
			}
		}
		if err := e.runRound(units, sink, evalSpan, stratum, iter); err != nil {
			return nil, err
		}
		if len(units) == 0 || len(next) == 0 {
			return produced, nil
		}
		cur = next
	}
}
