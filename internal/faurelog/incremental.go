package faurelog

import (
	"fmt"
	"sort"

	"faure/internal/ctable"
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
// The result is world-equivalent to a from-scratch Eval over prev's
// inputs plus the new facts: in every world both hold the same rows.
// Their data parts may differ. When a c-variable at a join column
// reaches the head, one path can derive reach(P2, 2, 4)[$p = P2] where
// the other derives reach($p, 2, 4)[$p = P2].
//
// It runs Eval's rounds, except that each stratum's round zero feeds
// every positive literal the rows its relation gained since the
// increment began (the seeded facts, and what earlier strata derived
// from them) instead of applying every rule in full.
//
// Cancellation is honored exactly as in Eval: Options.Budget, and the
// context it was built on, is polled while the new facts are seeded
// and at every propagation round, so a client disconnect aborts the
// increment at its next checkpoint with a Truncated partial result
// instead of running to completion. prev is never mutated — the seeded
// facts and re-derivations live in the engine's private store, so an
// aborted increment leaves the caller's database untouched; the result
// shares prev's tuple arrays as Eval's shares its input's (see
// Result). The faultinject point faurelog.increment.commit fires after
// propagation converges, immediately before the result database is
// assembled, so tests can fail the commit deterministically.
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
	e.since = map[string]int{}
	for _, name := range e.store.Names() {
		e.since[name] = e.store.Rel(name).Len()
	}
	// Insert the new facts. The touched EDB relations are exported into
	// the result so successive increments see the accumulated facts.
	// Cancellation is polled every seedCheckEvery insertions, so a
	// canceled client aborts even a huge fact batch promptly; a trip
	// here degrades to a Truncated partial result exactly like a trip
	// during propagation.
	addedPreds := make([]string, 0, len(added))
	for pred := range added {
		addedPreds = append(addedPreds, pred)
	}
	sort.Strings(addedPreds)
	seeded := 0
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
					return e.eval(err)
				}
			}
			seeded++
			if len(tp.Values) != rel.Arity {
				return nil, fmt.Errorf("faurelog: inserted tuple arity %d, relation %s has %d", len(tp.Values), pred, rel.Arity)
			}
			if tp.Condition().IsFalse() || !groups.seed(tp) {
				continue
			}
			if err := rel.Insert(tp); err != nil {
				return nil, err
			}
		}
	}
	return e.eval(nil)
}
